(* The traced run's transport decorator: times every call the replica loop
   makes into its transport, from outside the library, through the public
   [Runtime.Transport_intf.wrapper] hook that [Net.Serve.start ?wrap]
   takes.

   - [send]: how long handing one frame to the TCP transport blocks the
     caller (encode + CRC + lane enqueue);
   - [recv] returning a message: how long the loop waited for it, and the
     inbound mailbox depth it left behind;
   - [recv] returning [None]: the loop's timer deadline passed, so
     now − deadline is how late the replica woke for it. *)

type t = {
  recording : bool Atomic.t;  (** only the measured window counts *)
  send_us : Sample.t;
  recv_wait_us : Sample.t;
  timer_late_us : Sample.t;
  depth_max : int Atomic.t;
}

let create () =
  {
    recording = Atomic.make false;
    send_us = Sample.create ();
    recv_wait_us = Sample.create ();
    timer_late_us = Sample.create ();
    depth_max = Atomic.make 0;
  }

let rec raise_to a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then raise_to a v

let wrapper t =
  let module T = Runtime.Transport_intf in
  let now = Prelude.Mclock.now_us in
  {
    T.wrap =
      (fun ~start_us:_ tr ->
        {
          tr with
          T.send =
            (fun ~src ~dst ~trace msg ->
              let t0 = now () in
              tr.T.send ~src ~dst ~trace msg;
              if Atomic.get t.recording then
                Sample.add t.send_us (float_of_int (now () - t0)));
          recv =
            (fun ~me ~deadline ->
              let t0 = now () in
              let r = tr.T.recv ~me ~deadline in
              (if Atomic.get t.recording then
                 let t1 = now () in
                 match (r, deadline) with
                 | None, Some due ->
                     Sample.add t.timer_late_us (float_of_int (t1 - due))
                 | Some _, _ ->
                     Sample.add t.recv_wait_us (float_of_int (t1 - t0));
                     raise_to t.depth_max (tr.T.depth ~me)
                 | None, None -> ());
              r);
        });
  }
