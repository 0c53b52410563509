(** See the interface.  Thread structure per process:

    - 1 acceptor (select loop, so [close] can interrupt it);
    - 1 reader per accepted connection (peer entries → local mailbox,
      client connections → [on_client]);
    - 1 writer per outgoing peer link (bounded queue, reconnect/backoff).

    The replica's event loop only ever touches the mailbox; all socket IO
    happens on these helper threads. *)

type listener = { listen_fd : Unix.file_descr; host : string; port : int }

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> failwith ("cannot resolve " ^ host)
    | h -> h.Unix.h_addr_list.(0)
    | exception Not_found -> failwith ("cannot resolve " ^ host))

let listen ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (resolve host, port));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { listen_fd = fd; host; port }

type hello_verdict = Peer of int | Client | Reject of string

(* ---- outgoing peer links ---- *)

type link = {
  dst : int;
  lanes : string Lanes.t;
      (** two-lane write queue: control frames (heartbeats, sync probes,
          catch-up) always preempt data frames, and the data lane sheds —
          counted — instead of buffering without bound *)
  lock : Mutex.t;
  cond : Condition.t;
  mutable fd : Unix.file_descr option;
  mutable attempts : int;  (** connect attempts so far (for reconnects) *)
  mutable backoff : int;
      (** next reconnect delay, µs; doubles per failure up to the cap and
          resets to the minimum once a connect + Hello succeeds, so a healed
          link probes at full cadence again instead of staying pinned at the
          maximum backoff (which would starve failure-detector recovery) *)
}

type counters = {
  sent : int Atomic.t;
  dropped : int Atomic.t;
  reconnects : int Atomic.t;
  bytes_out : int Atomic.t;
  bytes_in : int Atomic.t;
  disconnected_us : int Atomic.t;
      (** cumulative µs links spent wanting a connection they did not have *)
  queue_hwm : int Atomic.t;
      (** data-lane write-queue high-water mark, max over links *)
  ctrl_hwm : int Atomic.t;
      (** control-lane high-water mark, max over links *)
  lane_shed : int Atomic.t;
      (** frames shed from full data lanes, summed over links *)
}

let atomic_max a v =
  let rec go () =
    let cur = Atomic.get a in
    if v > cur && not (Atomic.compare_and_set a cur v) then go ()
  in
  go ()

type client_conn = {
  conn_fd : Unix.file_descr;
  mutable buf : string;  (** bytes read so far; undecoded from [pos] *)
  mutable pos : int;
  ctrs : counters;
}

(* The next frame of the stream whose undecoded bytes are [buf] from
   [pos]: decoded in place when a whole frame is buffered, otherwise after
   reading at least the missing bytes from [fd].  The unread tail is copied
   once per refill, never once per frame, so a read carrying many frames
   decodes in linear time. *)
let rec next_frame ctrs fd chunk buf pos =
  match Codec.decode_frame ~pos buf with
  | Codec.Got (frame, next) -> `Frame (frame, buf, next)
  | Codec.Corrupt e -> `Corrupt e
  | Codec.Need_more missing ->
      let tail = String.length buf - pos in
      let b = Buffer.create (tail + Bytes.length chunk) in
      Buffer.add_substring b buf pos tail;
      let rec fill () =
        Buffer.length b >= tail + missing
        ||
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> false
        | n ->
            ignore (Atomic.fetch_and_add ctrs.bytes_in n);
            Buffer.add_subbytes b chunk 0 n;
            fill ()
        | exception (Unix.Unix_error _ | Sys_error _) -> false
      in
      if fill () then next_frame ctrs fd chunk (Buffer.contents b) 0 else `Eof

(* Sockets carry SO_SNDTIMEO, so a blocking [write] to a wedged peer
   returns [EAGAIN] every slice instead of parking the thread on the
   kernel's send buffer indefinitely.  [write_all] resumes from the same
   offset (never restarting the frame mid-stream) and converts a stall
   longer than [stall_after_us] into [ETIMEDOUT], which callers already
   treat as a dead connection — the frame is retransmitted whole on the
   next connection, and a stopping transport's writer gets back to its
   loop head (where it checks the flag) within one slice. *)
let write_all ?(stall_after_us = max_int) fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let started = Prelude.Mclock.now_us () in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          if Prelude.Mclock.now_us () - started >= stall_after_us then
            raise (Unix.Unix_error (Unix.ETIMEDOUT, "write", ""))
          else go off
  in
  go 0

let send_timeout_slice_s = 0.25

let set_send_timeout fd =
  try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_slice_s
  with Unix.Unix_error _ -> ()

let conn_write conn s =
  match write_all ~stall_after_us:2_000_000 conn.conn_fd s with
  | () ->
      ignore (Atomic.fetch_and_add conn.ctrs.bytes_out (String.length s));
      true
  | exception (Unix.Unix_error _ | Sys_error _) -> false

let conn_read_frame conn =
  match
    next_frame conn.ctrs conn.conn_fd (Bytes.create 8192) conn.buf conn.pos
  with
  | `Frame (frame, buf, next) ->
      conn.buf <- buf;
      conn.pos <- next;
      Some frame
  | `Corrupt _ | `Eof -> None

(* ---- transport state ---- *)

type 'msg state = {
  me : int;
  n : int;
  addrs : (string * int) array;
  hello : string;
  listener : listener;
  box : (int * 'msg) Runtime.Mailbox.t;
  deliver : src:int -> 'msg -> unit;
      (** where decoded peer messages and self-sends go: [box] unless the
          caller routes them itself *)
  links : link array;
  ctrs : counters;
  stopping : bool Atomic.t;
  accepted : Unix.file_descr list ref;
  accepted_lock : Mutex.t;
  write_stall_us : int;
  backoff_min_us : int;
  backoff_max_us : int;
  log : string -> unit;
}

let quiet_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let quiet_shutdown fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* Sleep in short slices so a stopping transport is never stuck in a long
   backoff pause. *)
let backoff_sleep st us =
  let slice = 50_000 in
  let rec go left =
    if left > 0 && not (Atomic.get st.stopping) then begin
      Prelude.Mclock.sleep_us (min slice left);
      go (left - slice)
    end
  in
  go us

let try_connect st link =
  let host, port = st.addrs.(link.dst) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (resolve host, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    set_send_timeout fd;
    write_all ~stall_after_us:st.write_stall_us fd st.hello
  with
  | () ->
      ignore (Atomic.fetch_and_add st.ctrs.bytes_out (String.length st.hello));
      Some fd
  | exception (Unix.Unix_error _ | Sys_error _ | Failure _) ->
      quiet_close fd;
      None

(* Connect (or reconnect) [link], sleeping with capped exponential backoff
   between attempts; every attempt beyond the link's first counts as a
   reconnect.  [None] only when the transport is stopping.  Time spent
   inside here without a connection is charged to [disconnected_us] — the
   raw material for attributing a verdict to a partition. *)
let ensure_connected st link =
  let entered = Prelude.Mclock.now_us () in
  let charge () =
    let waited = Prelude.Mclock.now_us () - entered in
    if waited > 0 then
      ignore (Atomic.fetch_and_add st.ctrs.disconnected_us waited)
  in
  let rec go () =
    if Atomic.get st.stopping then begin
      charge ();
      None
    end
    else
      match link.fd with
      | Some fd -> Some fd
      | None ->
          if link.attempts > 0 then Atomic.incr st.ctrs.reconnects;
          link.attempts <- link.attempts + 1;
          (match try_connect st link with
          | Some fd ->
              Mutex.lock link.lock;
              link.fd <- Some fd;
              link.backoff <- st.backoff_min_us;
              Mutex.unlock link.lock;
              charge ();
              Some fd
          | None ->
              let backoff = link.backoff in
              link.backoff <- min (2 * backoff) st.backoff_max_us;
              backoff_sleep st backoff;
              go ())
  in
  go ()

let drop_connection link =
  Mutex.lock link.lock;
  (match link.fd with
  | Some fd ->
      link.fd <- None;
      quiet_shutdown fd;
      quiet_close fd
  | None -> ());
  Mutex.unlock link.lock

let writer_loop st link =
  let rec loop () =
    Mutex.lock link.lock;
    while Lanes.is_empty link.lanes && not (Atomic.get st.stopping) do
      Condition.wait link.cond link.lock
    done;
    if Atomic.get st.stopping then Mutex.unlock link.lock
    else begin
      (* Peek, write, then drop: a frame interrupted by a connection
         failure is retransmitted on the fresh connection (the receiver
         discarded the truncated copy at EOF).  The drop names the lane the
         peek returned, so a control frame arriving during the write never
         gets removed in place of the data frame just written. *)
      let lane, frame =
        match Lanes.peek link.lanes with
        | Some lf -> lf
        | None -> assert false
      in
      Mutex.unlock link.lock;
      (match ensure_connected st link with
      | None -> ()
      | Some fd -> (
          match write_all ~stall_after_us:st.write_stall_us fd frame with
          | () ->
              ignore
                (Atomic.fetch_and_add st.ctrs.bytes_out (String.length frame));
              Mutex.lock link.lock;
              Lanes.drop link.lanes lane;
              Mutex.unlock link.lock
          | exception (Unix.Unix_error _ | Sys_error _) ->
              drop_connection link));
      if not (Atomic.get st.stopping) then loop ()
    end
  in
  loop ();
  drop_connection link

(* ---- incoming connections ---- *)

(* Incremental frame stream over a connection; calls [on_frame] until EOF,
   corruption, or [on_frame] returns [false].  [buf]/[pos] locate the bytes
   past the frame handed out (for handing a client connection over
   mid-buffer). *)
let read_frames st fd
    ~(on_frame : Codec.frame -> buf:string -> pos:int -> bool) =
  let chunk = Bytes.create 8192 in
  let rec go buf pos =
    match next_frame st.ctrs fd chunk buf pos with
    | `Frame (frame, buf, next) ->
        if on_frame frame ~buf ~pos:next then go buf next
    | `Corrupt e ->
        st.log (Printf.sprintf "replica %d: corrupt frame: %s" st.me e)
    | `Eof -> ()
  in
  go "" 0

(* Deregister and close an accepted fd exactly once: whoever removes it
   from the list (this reader on exit, or [close] draining it) owns the
   actual [Unix.close], so a reused descriptor number is never closed by a
   stale reference. *)
let release_conn st fd =
  Mutex.lock st.accepted_lock;
  let mine = List.exists (fun f -> f == fd) !(st.accepted) in
  st.accepted := List.filter (fun f -> f != fd) !(st.accepted);
  Mutex.unlock st.accepted_lock;
  if mine then begin
    quiet_shutdown fd;
    quiet_close fd
  end

let reader st classify_hello decode_peer on_client fd =
  let role = ref `Unknown in
  read_frames st fd ~on_frame:(fun frame ~buf ~pos ->
      match !role with
      | `Peer src ->
          (match decode_peer ~src frame with
          | Some msg -> st.deliver ~src msg
          | None -> ());
          true
      | `Unknown -> (
          match classify_hello frame with
          | Peer src ->
              role := `Peer src;
              true
          | Reject why ->
              st.log
                (Printf.sprintf "replica %d: rejected connection: %s" st.me why);
              false
          | Client ->
              (match on_client with
              | Some handler ->
                  handler ~first:frame
                    { conn_fd = fd; buf; pos; ctrs = st.ctrs }
              | None ->
                  st.log
                    (Printf.sprintf
                       "replica %d: unexpected client connection" st.me));
              false));
  release_conn st fd

let acceptor_loop st classify_hello decode_peer on_client =
  let rec loop () =
    if not (Atomic.get st.stopping) then begin
      match Unix.select [ st.listener.listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ -> (
          match Unix.accept st.listener.listen_fd with
          | fd, _ ->
              (try Unix.setsockopt fd Unix.TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              set_send_timeout fd;
              Mutex.lock st.accepted_lock;
              st.accepted := fd :: !(st.accepted);
              Mutex.unlock st.accepted_lock;
              ignore
                (Thread.create
                   (reader st classify_hello decode_peer on_client)
                   fd);
              loop ()
          | exception Unix.Unix_error _ -> if Atomic.get st.stopping then () else loop ())
      | exception Unix.Unix_error _ -> if Atomic.get st.stopping then () else loop ()
    end
  in
  loop ()

(* ---- assembly ---- *)

let create (type msg) ~me ~addrs ~listener ~hello ~classify_hello
    ~(decode_peer : src:int -> Codec.frame -> msg option)
    ~(encode_peer : msg -> string) ?deliver ?on_client ?(max_queue = 4096)
    ?(max_lane_bytes = 4 lsl 20) ?(lane_of : (msg -> Lanes.lane) option)
    ?(write_stall_us = 2_000_000) ?(backoff_min_us = 20_000)
    ?(backoff_max_us = 1_000_000) ?(log = fun s -> prerr_endline s) () :
    msg Runtime.Transport_intf.t =
  let n = Array.length addrs in
  if me < 0 || me >= n then invalid_arg "Tcp_transport.create: me out of range";
  let lane_of = match lane_of with Some f -> f | None -> fun _ -> Lanes.Data in
  let box = Runtime.Mailbox.create () in
  let deliver =
    match deliver with
    | Some f -> f
    | None ->
        fun ~src msg ->
          Runtime.Mailbox.put box ~deliver_at:(Prelude.Mclock.now_us ())
            (src, msg)
  in
  let st =
    {
      me;
      n;
      addrs;
      hello;
      listener;
      box;
      deliver;
      links =
        Array.init n (fun dst ->
            {
              dst;
              lanes =
                Lanes.create ~max_data_frames:max_queue
                  ~max_data_bytes:max_lane_bytes ~size_of:String.length ();
              lock = Mutex.create ();
              cond = Condition.create ();
              fd = None;
              attempts = 0;
              backoff = backoff_min_us;
            });
      ctrs =
        {
          sent = Atomic.make 0;
          dropped = Atomic.make 0;
          reconnects = Atomic.make 0;
          bytes_out = Atomic.make 0;
          bytes_in = Atomic.make 0;
          disconnected_us = Atomic.make 0;
          queue_hwm = Atomic.make 0;
          ctrl_hwm = Atomic.make 0;
          lane_shed = Atomic.make 0;
        };
      stopping = Atomic.make false;
      accepted = ref [];
      accepted_lock = Mutex.create ();
      write_stall_us;
      backoff_min_us;
      backoff_max_us;
      log;
    }
  in
  let acceptor =
    Thread.create (fun () -> acceptor_loop st classify_hello decode_peer on_client) ()
  in
  let writers =
    Array.to_list st.links
    |> List.filter_map (fun link ->
           if link.dst = me then None
           else Some (Thread.create (fun () -> writer_loop st link) ()))
  in
  let send ~src:_ ~dst ~trace msg =
    Atomic.incr st.ctrs.sent;
    Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Send ~trace ~a:dst ();
    if dst = me then st.deliver ~src:me msg
    else if dst < 0 || dst >= n then
      invalid_arg "Tcp_transport.send: dst out of range"
    else begin
      let frame = encode_peer msg in
      let lane = lane_of msg in
      let link = st.links.(dst) in
      Mutex.lock link.lock;
      let shed = Lanes.push link.lanes lane frame in
      let ctrl_depth = Lanes.ctrl_length link.lanes in
      let data_depth = Lanes.data_length link.lanes in
      Condition.signal link.cond;
      Mutex.unlock link.lock;
      if shed > 0 then begin
        ignore (Atomic.fetch_and_add st.ctrs.dropped shed);
        ignore (Atomic.fetch_and_add st.ctrs.lane_shed shed);
        if Obs.Recorder.active () then
          for _ = 1 to shed do
            Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Shed ~trace
              ~a:Obs.Event.shed_queue ~b:dst ()
          done
      end;
      let prev_ctrl = Atomic.get st.ctrs.ctrl_hwm in
      let prev_data = Atomic.get st.ctrs.queue_hwm in
      atomic_max st.ctrs.ctrl_hwm ctrl_depth;
      atomic_max st.ctrs.queue_hwm data_depth;
      (* Sample lane depths into the trace only when a lane sets a new
         high-water mark — a counter per send would double event volume. *)
      if Obs.Recorder.active () then begin
        if ctrl_depth > prev_ctrl then
          Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Queue_depth
            ~a:Obs.Event.lane_ctrl ~b:ctrl_depth ();
        if data_depth > prev_data then
          Obs.Recorder.emit ~pid:me ~kind:Obs.Event.Queue_depth
            ~a:Obs.Event.lane_data ~b:data_depth ()
      end
    end
  in
  let post ~src ~dst:_ msg =
    Runtime.Mailbox.put st.box ~deliver_at:(Prelude.Mclock.now_us ()) (src, msg)
  in
  let recv ~me:_ ~deadline = Runtime.Mailbox.take st.box ~deadline in
  let depth ~me:_ = Runtime.Mailbox.length st.box in
  let stats () =
    {
      Runtime.Transport_intf.sent = Atomic.get st.ctrs.sent;
      dropped = Atomic.get st.ctrs.dropped;
      link =
        Some
          {
            Runtime.Transport_intf.reconnects = Atomic.get st.ctrs.reconnects;
            bytes_out = Atomic.get st.ctrs.bytes_out;
            bytes_in = Atomic.get st.ctrs.bytes_in;
            disconnected_us = Atomic.get st.ctrs.disconnected_us;
            queue_hwm = Atomic.get st.ctrs.queue_hwm;
            ctrl_hwm = Atomic.get st.ctrs.ctrl_hwm;
            lane_shed = Atomic.get st.ctrs.lane_shed;
          };
    }
  in
  let close () =
    if not (Atomic.exchange st.stopping true) then begin
      (* Wake writers (blocked on their condition) and break any write in
         progress, then interrupt the acceptor and all readers. *)
      Array.iter
        (fun link ->
          Mutex.lock link.lock;
          (match link.fd with Some fd -> quiet_shutdown fd | None -> ());
          Condition.broadcast link.cond;
          Mutex.unlock link.lock)
        st.links;
      quiet_close st.listener.listen_fd;
      Thread.join acceptor;
      List.iter Thread.join writers;
      Mutex.lock st.accepted_lock;
      let conns = !(st.accepted) in
      st.accepted := [];
      Mutex.unlock st.accepted_lock;
      (* Readers exit on the shutdown-induced EOF; they are not joined —
         they only touch their own fd, the mailbox and atomic counters. *)
      List.iter
        (fun fd ->
          quiet_shutdown fd;
          quiet_close fd)
        conns;
      (* Wakes a consumer blocked in [recv]; a reader still draining its
         socket may [put] afterwards — queued, harmlessly, with no wake. *)
      Runtime.Mailbox.close st.box
    end
  in
  { Runtime.Transport_intf.n; send; post; recv; depth; stats; close }
