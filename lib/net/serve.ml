(** One replica as an OS process: the TCP transport, [shards ≥ 1]
    independent Algorithm 1 instances multiplexed over the {e same}
    per-peer links, and a client port — the body of [timebounds serve]
    (one shard) and [timebounds shards serve] (many).

    The unsharded case is simply the one-shard case: linearizability
    composes, so [shards] independently linearizable instances are a
    linearizable namespace, and one instance is the paper's object.

    Wiring: every codec frame carries its shard id; the TCP transport's
    reader threads route each decoded message straight into the owning
    shard's own {!Runtime.Mailbox} ([Tcp_transport.create ?deliver]).
    Each shard runs behind a {e facade} transport — send tags outgoing
    frames with the shard id, recv/post/depth operate on the shard's
    mailbox — so [Runtime.Replica] hosts it unchanged.  Client connections
    (first frame [Invoke] rather than [Hello]) are served on their
    accepting thread: each [Invoke] becomes a synchronous invocation on
    its shard's node, each [Stats_req] a transport-stats snapshot.

    Execution vehicle: one shard keeps its own domain; more shards run on
    systhreads ([R.node ~threaded:true]), because an idle event loop
    blocks in [Mailbox.take] releasing the runtime lock, so a host carries
    far more shards than the OCaml domain ceiling would allow, at the cost
    of serialising CPU bursts.

    Per-shard isolation elsewhere:
    - durable state lives under [root/shard-<k>/], each its own
      {!Durable.Store} whose META names the replica, shard and shard
      count — a mixed-up directory handoff fails loudly;
    - a chaos plan is projected per shard ({!Fault.Fault_plan.for_shard}):
      shard [k]'s facade is wrapped only when the projection is non-empty,
      so a [%k]-scoped fault never touches a sibling;
    - admission control is per shard, so one saturated shard sheds
      without starving its siblings' budgets.

    A {!handle} is separable from the CLI so an in-process caller (the
    [tcp_cluster] example, the tests) can run several replica stacks in
    one process on ephemeral ports. *)

module T = Runtime.Transport_intf

type config = {
  pid : int;
  addrs : (string * int) array;  (** every replica's address, index = pid *)
  params : Core.Params.t;  (** effective (slack already folded into d, u) *)
  offset : int;  (** this replica's clock offset, µs *)
  start_us : int option;
      (** shared clock epoch (µs on {!Prelude.Mclock}'s timeline, which is
          wall-clock based and hence comparable across local processes).
          Every replica of a cluster must use the same epoch: replica
          clocks read [now − start_us + offset], so per-process epochs
          would skew them by the process spawn deltas — far beyond the ε
          the algorithm assumes.  [None] means "now" (single-replica or
          in-process use). *)
  trace : string option;
      (** when set, install an [Obs.Recorder] writing this process's trace
          file, timestamped from [start_us] — the same epoch in every
          replica makes the per-process files merge onto one timeline. *)
  durable : string option;
      (** this replica's durable root ({!Durable.Store}): shard [k] WALs
          every applied mutation under [root/shard-<k>], checkpoints
          periodically, and on start recovers the prefix and catches up
          from peers.  [None] = memory-only. *)
  fsync : Durable.Wal.fsync;  (** WAL durability policy (when [durable]) *)
  snapshot_every : int;
      (** checkpoint after this many WAL records (≤ 0 = never snapshot) *)
  fallback : Quorum.Config.t option;
      (** arm the adaptive quorum fallback ([--fallback quorum]) on every
          shard: each instance heartbeats its peers, runs the fast path
          behind the response release gate while timing holds, and
          degrades to the sequencer/majority mode when a peer is suspected
          dead — shards degrade (and recover) independently.  The
          configured [on_mode]/[on_suspect] hooks are composed with this
          stack's own logging (the "mode: quorum(...)" lines CI greps). *)
  sync : Sync.Config.t option;
      (** arm live clock synchronization ([--sync on]) on every shard: each
          instance exchanges timestamped ping/pong probes with its peers,
          slews a corrected clock toward the Lundelius–Lynch midpoint
          average, and publishes its achieved ε each round.  The
          configured [on_eps] hook is composed with this stack's own
          logging (the "sync eps=..." lines the CI sync smoke greps). *)
  log : string -> unit;
}

(* How long a restarted replica waits for peer catch-up replies before
   giving up on the missing ones: the algorithm's own propagation bound
   plus a generous allowance for TCP reconnection — peers may themselves
   be mid-restart.  The freeze ends as soon as every peer answers, so the
   constant only caps the unresponsive-peer case. *)
let catchup_grace_us = 1_500_000

let shard_dir root k = Filename.concat root (Printf.sprintf "shard-%d" k)

(* A rule scoped to a shard this host does not run would silently never
   fire; refuse the plan instead, naming the rule. *)
let check_chaos ~shards plan =
  match
    List.find_opt
      (fun (r : Fault.Fault_plan.rule) ->
        match r.Fault.Fault_plan.shard with
        | Some k -> k < 0 || k >= shards
        | None -> false)
      (Fault.Fault_plan.rules plan)
  with
  | None -> Ok ()
  | Some r ->
      Error
        (Printf.sprintf
           "chaos rule %s is scoped to shard %d, but this host runs %d shard%s"
           (Fault.Fault_plan.rule_label r)
           (Option.get r.Fault.Fault_plan.shard)
           shards
           (if shards = 1 then "" else "s"))

module Make (W : Wire.WIRED) = struct
  module C = Codec.Make (W.C)
  module R = Runtime.Replica.Make (W.L.D)
  module P = Persist.Make (W.C)

  type handle = {
    transport : (int * R.event) T.t;  (** the shared TCP transport *)
    facades : R.event T.t array;  (** per-shard views, index = shard *)
    nodes : R.node array;
    recorder : (Obs.Recorder.t * (unit -> unit)) option;
        (** installed recorder and its trace-file closer *)
    stores : Durable.Store.t option array;
    snap_stop : bool Atomic.t;
    snap_thread : Thread.t option;  (** checkpoint cadence *)
    mutable handle_stopped : bool;
  }

  let hello_of cfg ~shards =
    {
      Codec.pid = cfg.pid;
      n = cfg.params.Core.Params.n;
      d = cfg.params.Core.Params.d;
      u = cfg.params.Core.Params.u;
      eps = cfg.params.Core.Params.eps;
      x = cfg.params.Core.Params.x;
      obj_tag = W.C.obj_tag;
      shards;
    }

  (* Accept a peer iff it runs the same protocol instances: same object,
     same (n, d, u, ε, X), same shard count.  A mismatched peer would
     silently break the admissibility assumptions (or route frames to the
     wrong instances), so it is rejected loudly instead. *)
  let classify_hello cfg ~shards frame =
    match C.decode_payload frame with
    | Ok (C.Hello h) ->
        let mine = hello_of cfg ~shards in
        if h.Codec.obj_tag <> mine.Codec.obj_tag then
          Tcp_transport.Reject
            (Printf.sprintf "object mismatch (peer %d, ours %d)"
               h.Codec.obj_tag mine.Codec.obj_tag)
        else if
          h.Codec.n <> mine.Codec.n
          || h.Codec.d <> mine.Codec.d
          || h.Codec.u <> mine.Codec.u
          || h.Codec.eps <> mine.Codec.eps
          || h.Codec.x <> mine.Codec.x
        then
          Tcp_transport.Reject
            (Printf.sprintf
               "parameter mismatch: peer %d has (n=%d d=%d u=%d eps=%d x=%d)"
               h.Codec.pid h.Codec.n h.Codec.d h.Codec.u h.Codec.eps h.Codec.x)
        else if h.Codec.shards <> mine.Codec.shards then
          Tcp_transport.Reject
            (Printf.sprintf "shard topology mismatch (peer %d, ours %d)"
               h.Codec.shards mine.Codec.shards)
        else if h.Codec.pid < 0 || h.Codec.pid >= mine.Codec.n then
          Tcp_transport.Reject (Printf.sprintf "bad peer pid %d" h.Codec.pid)
        else Tcp_transport.Peer h.Codec.pid
    | Ok _ -> Tcp_transport.Client
    | Error e -> Tcp_transport.Reject ("bad handshake: " ^ e)

  let entry_of ~op ~time ~pid =
    { R.Alg.op; ts = Prelude.Stamp.make ~time ~pid }

  (* Frames decode to (shard, event); the handshake guarantees matching
     topologies, so an out-of-range shard id is a corrupt/foreign frame
     and is skipped like any other undecodable one. *)
  let decode_peer ~shards ~me ~src frame =
    let ok shard = shard >= 0 && shard < shards in
    match C.decode_payload frame with
    | Ok (C.Entry { op; time; pid; trace; op_id; shard }) when ok shard ->
        Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Recv ~trace ~a:src ();
        Some
          ( shard,
            R.of_wire (R.Wire_entry (entry_of ~op ~time ~pid, trace, op_id)) )
    | Ok (C.Catchup_req { time; cpid; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_catchup_req { time; cpid }))
    | Ok (C.Catchup_rep { entries; time; cpid; shard }) when ok shard ->
        let entries =
          List.map
            (fun (op, time, pid, op_id) -> (entry_of ~op ~time ~pid, op_id))
            entries
        in
        Some (shard, R.of_wire (R.Wire_catchup_rep { entries; time; cpid }))
    | Ok (C.Hb { stamp; epoch; qmode; seq; floor; shard }) when ok shard ->
        Some
          ( shard,
            R.of_wire (R.Wire_quorum (R.Hb { stamp; epoch; qmode; seq; floor }))
          )
    | Ok (C.Forward { qid; origin; op; op_id; trace; shard }) when ok shard ->
        Some
          ( shard,
            R.of_wire
              (R.Wire_quorum (R.Forward { qid; origin; op; op_id; trace })) )
    | Ok (C.Propose { epoch; qseq; time; origin; qid; op; op_id; trace; shard })
      when ok shard ->
        Some
          ( shard,
            R.of_wire
              (R.Wire_quorum
                 (R.Propose
                    {
                      epoch;
                      qseq;
                      p =
                        {
                          R.q_time = time;
                          q_op = op;
                          q_origin = origin;
                          q_qid = qid;
                          q_op_id = op_id;
                          q_trace = trace;
                        };
                    })) )
    | Ok (C.Qack { epoch; qseq; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Qack { epoch; qseq })))
    | Ok (C.Qcommit { epoch; qseq; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Qcommit { epoch; qseq })))
    | Ok (C.Fnack { qid; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Fnack { qid })))
    | Ok (C.Qfill { epoch; from_seq; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_quorum (R.Qfill { epoch; from_seq })))
    | Ok (C.Ping { seq; t0; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_sync (R.Sping { seq; t0 })))
    | Ok (C.Pong { seq; t0; t_rx; t_tx; shard }) when ok shard ->
        Some (shard, R.of_wire (R.Wire_sync (R.Spong { seq; t0; t_rx; t_tx })))
    | Ok _ | Error _ -> None

  let encode_peer (shard, ev) =
    match R.wire_view ev with
    | Some (R.Wire_entry ((e : R.Alg.entry), trace, op_id)) ->
        C.encode
          (C.Entry
             {
               op = e.R.Alg.op;
               time = e.R.Alg.ts.Prelude.Stamp.time;
               pid = e.R.Alg.ts.Prelude.Stamp.pid;
               trace;
               op_id;
               shard;
             })
    | Some (R.Wire_catchup_req { time; cpid }) ->
        C.encode (C.Catchup_req { time; cpid; shard })
    | Some (R.Wire_catchup_rep { entries; time; cpid }) ->
        let entries =
          List.map
            (fun ((e : R.Alg.entry), op_id) ->
              ( e.R.Alg.op,
                e.R.Alg.ts.Prelude.Stamp.time,
                e.R.Alg.ts.Prelude.Stamp.pid,
                op_id ))
            entries
        in
        C.encode (C.Catchup_rep { entries; time; cpid; shard })
    | Some (R.Wire_quorum q) ->
        C.encode
          (match q with
          | R.Hb { stamp; epoch; qmode; seq; floor } ->
              C.Hb { stamp; epoch; qmode; seq; floor; shard }
          | R.Forward { qid; origin; op; op_id; trace } ->
              C.Forward { qid; origin; op; op_id; trace; shard }
          | R.Propose { epoch; qseq; p } ->
              C.Propose
                {
                  epoch;
                  qseq;
                  time = p.R.q_time;
                  origin = p.R.q_origin;
                  qid = p.R.q_qid;
                  op = p.R.q_op;
                  op_id = p.R.q_op_id;
                  trace = p.R.q_trace;
                  shard;
                }
          | R.Qack { epoch; qseq } -> C.Qack { epoch; qseq; shard }
          | R.Qcommit { epoch; qseq } -> C.Qcommit { epoch; qseq; shard }
          | R.Fnack { qid } -> C.Fnack { qid; shard }
          | R.Qfill { epoch; from_seq } -> C.Qfill { epoch; from_seq; shard })
    | Some (R.Wire_sync s) ->
        C.encode
          (match s with
          | R.Sping { seq; t0 } -> C.Ping { seq; t0; shard }
          | R.Spong { seq; t0; t_rx; t_tx } ->
              C.Pong { seq; t0; t_rx; t_tx; shard })
    | None ->
        (* Invoke/Stop/… are local-only events; the replica never sends
           them, so reaching here is a wiring bug. *)
        invalid_arg "Serve.encode_peer: local event on the wire"

  (* Wire-lane classification: heartbeats (doubling as mode announcements),
     sync probes, and catch-up frames ride the control lane so every
     shard's failure detector and ε estimator stay live when data load
     saturates a shared link; everything else (entries, quorum ordering
     traffic) is data and may be shed under overload. *)
  let lane_of (_shard, ev) =
    match R.wire_view ev with
    | Some (R.Wire_quorum (R.Hb _))
    | Some (R.Wire_sync _)
    | Some (R.Wire_catchup_req _)
    | Some (R.Wire_catchup_rep _) ->
        Lanes.Ctrl
    | Some _ | None -> Lanes.Data

  (* Shard [k]'s view of the shared transport.  [send] rides the real
     links with the shard tag; [post]/[recv]/[depth] are the shard's own
     mailbox (the readers feed it); [close] closes only that mailbox —
     the host owns the one real close.  [stats] counts nothing itself: the
     real links are counted once, by the host, which adds whatever a
     wrapper (the chaos layer's injected drops) reports on top. *)
  let facade_of ~real ~mbox ~shard =
    {
      T.n = real.T.n;
      send =
        (fun ~src ~dst ~trace ev -> real.T.send ~src ~dst ~trace (shard, ev));
      post =
        (fun ~src ~dst:_ ev ->
          Runtime.Mailbox.put mbox ~deliver_at:(Prelude.Mclock.now_us ())
            (src, ev));
      recv = (fun ~me:_ ~deadline -> Runtime.Mailbox.take mbox ~deadline);
      depth = (fun ~me:_ -> Runtime.Mailbox.length mbox);
      stats = (fun () -> { T.sent = 0; dropped = 0; link = None });
      close = (fun () -> Runtime.Mailbox.close mbox);
    }

  let host_stats ~real facades =
    Array.fold_left
      (fun (acc : T.stats) f ->
        let s = T.stats f in
        {
          acc with
          sent = acc.sent + s.T.sent;
          dropped = acc.dropped + s.T.dropped;
        })
      (T.stats real) facades

  (* Log lines keep their unsharded form on a one-shard host — CI and the
     benchmark match "replica N: mode: quorum(", "replica N: suspecting
     peer", "replica N: sync eps=" and "recovered". *)
  let who cfg ~shards k =
    if shards = 1 then Printf.sprintf "replica %d" cfg.pid
    else Printf.sprintf "replica %d shard %d" cfg.pid k

  (* Durable state for one shard, loaded before its node exists: the node
     seeds its object, dedup tables and high-water mark from the recovered
     prefix, then (if this is a restart rather than genesis) catches up
     from peers once the transport is live. *)
  let open_durable cfg ~shards ~root k =
    let dir = shard_dir root k in
    let t0 = Prelude.Mclock.now_us () in
    let meta =
      Printf.sprintf "timebounds replica=%d shard=%d obj=%d n=%d shards=%d"
        cfg.pid k W.C.obj_tag cfg.params.Core.Params.n shards
    in
    match Durable.Store.open_ ~dir ~meta ~fsync:cfg.fsync with
    | Error e ->
        cfg.log (Printf.sprintf "%s: %s" (who cfg ~shards k) e);
        failwith e
    | Ok (store, recovered) ->
        let snap = P.recovered_of recovered in
        let rs =
          {
            R.r_obj = snap.P.s_obj;
            r_applied =
              List.map
                (fun (a : P.applied) ->
                  ( entry_of ~op:a.P.op ~time:a.P.time ~pid:a.P.pid,
                    a.P.result,
                    a.P.op_id ))
                snap.P.s_applied;
          }
        in
        let on_apply (e : R.Alg.entry) result op_id =
          Durable.Store.append store
            (P.encode_record
               {
                 P.op = e.R.Alg.op;
                 time = e.R.Alg.ts.Prelude.Stamp.time;
                 pid = e.R.Alg.ts.Prelude.Stamp.pid;
                 op_id;
                 result;
               })
        in
        let recovery =
          {
            R.catchup_wait_us =
              cfg.params.Core.Params.d + cfg.params.Core.Params.eps
              + catchup_grace_us;
            on_apply;
            recovered = Some rs;
          }
        in
        let replayed = List.length snap.P.s_applied in
        let took = Prelude.Mclock.now_us () - t0 in
        (store, recovery, recovered.Durable.Store.r_fresh, dir, replayed, took)

  (* Compose the caller's fallback and sync hooks with this stack's own
     logging — the "mode: quorum(...)", "suspecting peer" and "sync
     eps=..." lines are what the CI smokes grep for. *)
  let hooks cfg ~shards k =
    let who = who cfg ~shards k in
    let fallback =
      Option.map
        (fun (q : Quorum.Config.t) ->
          {
            q with
            Quorum.Config.on_mode =
              (fun ~quorum ~epoch ~seq ->
                cfg.log
                  (Printf.sprintf "%s: mode: %s(epoch=%d seq=%d)" who
                     (if quorum then "quorum" else "fast")
                     epoch seq);
                q.Quorum.Config.on_mode ~quorum ~epoch ~seq);
            on_suspect =
              (fun ~peer ~suspected ->
                cfg.log
                  (Printf.sprintf "%s: %s peer %d" who
                     (if suspected then "suspecting" else "cleared")
                     peer);
                q.Quorum.Config.on_suspect ~peer ~suspected);
          })
        cfg.fallback
    in
    let sync =
      Option.map
        (fun (s : Sync.Config.t) ->
          {
            s with
            Sync.Config.on_eps =
              (fun ~eps_us ~peers ->
                cfg.log
                  (Printf.sprintf "%s: sync eps=%dus peers=%d" who eps_us
                     peers);
                s.Sync.Config.on_eps ~eps_us ~peers);
          })
        cfg.sync
    in
    (fallback, sync)

  let snapshot_of (view : R.snapshot_view) =
    P.encode_snapshot
      {
        P.s_obj = view.R.v_obj;
        s_hwm_time = view.R.v_hwm_time;
        s_hwm_pid = view.R.v_hwm_pid;
        s_applied =
          List.map
            (fun ((e : R.Alg.entry), result, op_id) ->
              {
                P.op = e.R.Alg.op;
                time = e.R.Alg.ts.Prelude.Stamp.time;
                pid = e.R.Alg.ts.Prelude.Stamp.pid;
                op_id;
                result;
              })
            view.R.v_applied;
      }

  (* [wrap] is a transport decorator ({!Runtime.Transport_intf.wrapper})
     applied outermost around every shard's facade; [chaos] is projected
     per shard and applied inside it.  Both use the cluster's shared clock
     epoch as their time origin.
     @raise Invalid_argument if [shards < 1] or [chaos] scopes a rule to a
     shard this host does not run. *)
  let start ?(listener : Tcp_transport.listener option)
      ?(wrap : T.wrapper option) ?(shards = 1) ?chaos (cfg : config) =
    if shards < 1 then invalid_arg "Serve.start: shards must be >= 1";
    Option.iter
      (fun plan ->
        match check_chaos ~shards plan with
        | Ok () -> ()
        | Error e -> invalid_arg ("Serve.start: " ^ e))
      chaos;
    let host, port = cfg.addrs.(cfg.pid) in
    let listener =
      match listener with Some l -> l | None -> Tcp_transport.listen ~host ~port
    in
    let epoch_us =
      match cfg.start_us with Some s -> s | None -> Prelude.Mclock.now_us ()
    in
    (* The nodes are created after the transport, so client connections
       that race startup briefly spin on [nodes_ref]. *)
    let nodes_ref = ref None in
    let rec the_nodes () =
      match !nodes_ref with
      | Some nodes -> nodes
      | None ->
          Prelude.Mclock.sleep_us 1_000;
          the_nodes ()
    in
    let stats_ref =
      ref (fun () -> { T.sent = 0; dropped = 0; link = Some T.no_links })
    in
    let admissions = Array.init shards (fun _ -> Admission.create ()) in
    let on_client ~first conn =
      let reply msg = Tcp_transport.conn_write conn (C.encode msg) in
      let handle_frame frame =
        match C.decode_payload frame with
        | Ok (C.Invoke { shard; _ }) when shard < 0 || shard >= shards ->
            (* A client routed with another topology must not silently get
               answers from the wrong object. *)
            reply
              (C.Error_msg
                 (Printf.sprintf "no shard %d here (host has %d)" shard shards))
        | Ok (C.Invoke { op; trace; op_id; shard; deadline }) -> (
            let now = Prelude.Mclock.now_us () in
            if deadline > 0 && now > deadline then begin
              (* Already late at the door: executing it would be dead work
                 the client stopped waiting for. *)
              Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
                ~a:Obs.Event.shed_deadline ~b:shard ();
              reply (C.Shed { reason = "shed: deadline passed"; shard })
            end
            else
              let admission = admissions.(shard) in
              match
                Admission.try_admit admission ~now_us:now ~deadline_us:deadline
              with
              | Admission.Shed reason ->
                  Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Shed ~trace
                    ~a:Obs.Event.shed_admission ~b:shard ();
                  reply (C.Shed { reason; shard })
              | Admission.Admitted -> (
                  let finish () =
                    Admission.finish admission
                      ~elapsed_us:(Prelude.Mclock.now_us () - now)
                  in
                  match
                    R.node_invoke ~trace ~op_id ~deadline (the_nodes ()).(shard)
                      op
                  with
                  | r ->
                      finish ();
                      reply (C.Result { result = r; shard })
                  | exception R.Stopped ->
                      finish ();
                      reply (C.Error_msg "replica stopped")
                  | exception R.Retry_later why ->
                      finish ();
                      (* The client must back off and retry with the same op
                         id; [Client.retryable] recognises both answers.  A
                         "shed: ..." refusal (replica-side deadline check)
                         travels as the dedicated frame — the replica already
                         emitted its own [Shed] event. *)
                      if String.length why >= 4 && String.sub why 0 4 = "shed"
                      then reply (C.Shed { reason = why; shard })
                      else reply (C.Error_msg ("retry: " ^ why))))
        | Ok C.Stats_req -> reply (C.Stats (!stats_ref ()))
        | Ok m ->
            ignore
              (reply
                 (C.Error_msg
                    (Format.asprintf "unexpected frame %a" C.pp_msg m)));
            false
        | Error e ->
            ignore (reply (C.Error_msg ("bad frame: " ^ e)));
            false
      in
      let rec loop frame =
        if handle_frame frame then
          match Tcp_transport.conn_read_frame conn with
          | Some next -> loop next
          | None -> ()
      in
      loop first
    in
    (* The recorder goes in before the transport so connection races at
       startup are already traced.  It is process-global: one traced serve
       stack per process (the in-process test harness passes [trace =
       None]). *)
    let recorder =
      match cfg.trace with
      | None -> None
      | Some path ->
          let sink, flush, close = Obs.Recorder.file_sink path in
          let r = Obs.Recorder.start ~epoch_us ~sink ~flush () in
          Obs.Recorder.install r;
          Some (r, close)
    in
    let mboxes = Array.init shards (fun _ -> Runtime.Mailbox.create ()) in
    (* Readers route each decoded (shard, event) straight into the owning
       shard's mailbox — [decode_peer] already rejected out-of-range shard
       ids — so a peer frame costs one wakeup, not a relay hop. *)
    let deliver ~src (shard, ev) =
      Runtime.Mailbox.put mboxes.(shard)
        ~deliver_at:(Prelude.Mclock.now_us ())
        (src, ev)
    in
    let transport =
      Tcp_transport.create ~me:cfg.pid ~addrs:cfg.addrs ~listener
        ~hello:(C.encode (C.Hello (hello_of cfg ~shards)))
        ~classify_hello:(classify_hello cfg ~shards)
        ~decode_peer:(decode_peer ~shards ~me:cfg.pid)
        ~encode_peer ~deliver ~on_client ~lane_of ~log:cfg.log ()
    in
    let facades =
      Array.init shards (fun k ->
          let facade = facade_of ~real:transport ~mbox:mboxes.(k) ~shard:k in
          let facade =
            match chaos with
            | None -> facade
            | Some plan ->
                let scoped = Fault.Fault_plan.for_shard plan k in
                if Fault.Fault_plan.is_empty scoped then facade
                else
                  let w =
                    Fault.Chaos_transport.wrapper
                      (Fault.Chaos_transport.create scoped)
                  in
                  w.T.wrap ~start_us:epoch_us facade
          in
          match wrap with
          | None -> facade
          | Some w -> w.T.wrap ~start_us:epoch_us facade)
    in
    stats_ref := (fun () -> host_stats ~real:transport facades);
    let durable =
      Array.init shards (fun k ->
          Option.map (fun root -> open_durable cfg ~shards ~root k) cfg.durable)
    in
    let nodes =
      Array.init shards (fun k ->
          let recovery =
            Option.map (fun (_, r, _, _, _, _) -> r) durable.(k)
          in
          let fallback, sync = hooks cfg ~shards k in
          R.node ~params:cfg.params ~transport:facades.(k) ~pid:cfg.pid
            ~offset:cfg.offset ?start_us:cfg.start_us ~threaded:(shards > 1)
            ?recovery ?fallback ?sync ())
    in
    nodes_ref := Some nodes;
    let stores =
      Array.mapi
        (fun k entry ->
          Option.map
            (fun (store, _, fresh, dir, replayed, took) ->
              if not fresh then begin
                (* Restart, not genesis: announce the disk prefix and ask
                   the peers for whatever landed while we were down. *)
                R.post_recover facades.(k) ~pid:cfg.pid;
                cfg.log
                  (Printf.sprintf
                     "%s: recovered %d mutations from %s in %dµs; catching up"
                     (who cfg ~shards k) replayed dir took);
                Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Recover
                  ~a:replayed ~b:took ()
              end;
              store)
            entry)
        durable
    in
    let snap_stop = Atomic.make false in
    let snap_thread =
      if cfg.snapshot_every > 0 && Array.exists Option.is_some stores then
        (* Checkpoint cadence: one thread sweeps every shard's store,
           polling its WAL length and, past the threshold, asking that
           shard's replica loop for a consistent cut.  The callback runs
           inside the loop — the same thread as the [on_apply] appends — so
           capture and rotation cannot race an append. *)
        let sweep k = function
          | Some store
            when Durable.Store.records_since_snapshot store
                 >= cfg.snapshot_every ->
              R.request_snapshot facades.(k) ~pid:cfg.pid (fun view ->
                  let folded = Durable.Store.records_since_snapshot store in
                  Durable.Store.snapshot store (snapshot_of view);
                  Obs.Recorder.emit ~pid:cfg.pid ~kind:Obs.Event.Checkpoint
                    ~a:folded
                    ~b:(Durable.Store.generation store)
                    ())
          | _ -> ()
        in
        Some
          (Thread.create
             (fun () ->
               while not (Atomic.get snap_stop) do
                 Prelude.Mclock.sleep_us 200_000;
                 if not (Atomic.get snap_stop) then Array.iteri sweep stores
               done)
             ())
      else None
    in
    {
      transport;
      facades;
      nodes;
      recorder;
      stores;
      snap_stop;
      snap_thread;
      handle_stopped = false;
    }

  let stats handle = host_stats ~real:handle.transport handle.facades

  (* Stop order: shard nodes first (cancelling them wakes client-handler
     threads blocked on invocation cells), then the shard facades (a chaos
     layer flushes what it parked into the still-open links), then the
     shared transport (which joins its threads), then the stores, the
     recorder last, after every emitting thread is gone.  Returns every
     shard's completed-operation records, shard by shard. *)
  let stop handle =
    if not handle.handle_stopped then begin
      handle.handle_stopped <- true;
      Atomic.set handle.snap_stop true;
      let records = Array.map R.node_stop handle.nodes in
      Option.iter Thread.join handle.snap_thread;
      Array.iter T.close handle.facades;
      let stats = stats handle in
      T.close handle.transport;
      (* The nodes are joined, so no more [on_apply] appends: sync what the
         fsync policy may still be buffering, then close. *)
      Array.iter
        (Option.iter (fun store ->
             Durable.Store.sync store;
             Durable.Store.close store))
        handle.stores;
      (match handle.recorder with
      | None -> ()
      | Some (r, close) ->
          Obs.Recorder.uninstall ();
          Obs.Recorder.stop r;
          close ());
      (List.concat (Array.to_list records), stats)
    end
    else ([], stats handle)

  (* ---- the [timebounds serve] / [timebounds shards serve] body ---- *)

  let run_until_signalled ?watch_parent ?wrap ?(shards = 1) ?chaos
      (cfg : config) =
    let stop_requested = Atomic.make false in
    let request_stop _ = Atomic.set stop_requested true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    (* Ignore SIGPIPE: a dead peer must surface as EPIPE on the write, not
       kill the process. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let handle = start ?wrap ~shards ?chaos cfg in
    let host, port = cfg.addrs.(cfg.pid) in
    let over_shards fmt =
      if shards = 1 then "" else Printf.sprintf fmt shards
    in
    cfg.log
      (Printf.sprintf "replica %d: listening on %s:%d (%s, n=%d%s)" cfg.pid
         host port W.L.label cfg.params.Core.Params.n
         (over_shards ", %d shards"));
    let parent_alive () =
      match watch_parent with
      | None -> true
      | Some pid -> (
          match Unix.kill pid 0 with () -> true | exception _ -> false)
    in
    let rec wait () =
      if Atomic.get stop_requested then ()
      else if not (parent_alive ()) then
        cfg.log (Printf.sprintf "replica %d: parent gone, exiting" cfg.pid)
      else begin
        Prelude.Mclock.sleep_us 100_000;
        wait ()
      end
    in
    wait ();
    let records, stats = stop handle in
    cfg.log
      (Printf.sprintf "replica %d: stopped after %d ops%s; %s" cfg.pid
         (List.length records)
         (over_shards " over %d shards")
         (Format.asprintf "%a" T.pp_stats stats))
end
