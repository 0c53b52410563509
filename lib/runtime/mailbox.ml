(** See the interface for the contract.  The queue is a sorted association
    list keyed by ([deliver_at], sequence) — mailboxes hold at most a few
    in-flight messages per peer, so O(n) insertion beats the constant
    factors of a heap and keeps same-time items in insertion order.

    Wake protocol.  A taker bumps [parked] under [mutex] before it unlocks
    to [select], and drops it after re-locking.  A [put] that makes a new
    head claims the wake (sets [pending]) only when [parked > 0] and no
    byte is [pending]; whoever reads the byte clears [pending] once it
    re-locks.  A [put] racing a taker's unlock-then-[select] thus still
    finds it parked and its byte wakes the [select]; a [put] that finds
    [pending] set is seen by the taker that consumed the byte, which
    re-checks the queue under the lock.  No wakeup is lost.

    No syscall runs under [mutex] on the put/take path: a putter is often
    a systhread, and one that blocked re-acquiring its domain's runtime
    lock while holding [mutex] would stall the taker's domain behind it.
    The pipe therefore outlives [close] until its last user ([fd_users]:
    parked takers plus in-flight wake writes) lets go.

    Re-arming.  On a VM whose vCPUs halt when idle, a wakeup aimed at a
    vCPU that has halted for long costs the host's reschedule latency:
    measured on a 2-vCPU Firecracker guest, a 3-process kv cluster's MOP
    mean rose from ≈650 µs to ≈900–1400 µs when every taker parked until
    its deadline.  So one taker per process — whoever holds
    [rearm_token] — caps a bounded wait on a busy mailbox (one that
    delivered an item within the last [busy_us]) at [rearm_us], re-checks
    and parks again, keeping a vCPU responsive.  One is enough: letting
    every busy taker re-arm cost an 8-shard host ≈15% on its class
    overheads.  Every other wait, and every wait while idle, parks until
    a [put] or its deadline. *)

type 'a item = { at : int; seq : int; v : 'a }

let rearm_us = 100
let busy_us = 5_000
let rearm_token = Atomic.make false

type 'a t = {
  mutex : Mutex.t;
  mutable items : 'a item list;  (** sorted by [(at, seq)] *)
  mutable next_seq : int;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable parked : int;  (** takers in (or entering) [select] *)
  mutable fd_users : int;  (** [parked] plus wake writes in flight *)
  mutable pending : bool;  (** a wake byte was claimed and not yet read *)
  mutable closed : bool;
  mutable wakes : int;
  mutable last_item_us : int;  (** when [take] last returned an item *)
}

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    mutex = Mutex.create ();
    items = [];
    next_seq = 0;
    wake_r;
    wake_w;
    parked = 0;
    fd_users = 0;
    pending = false;
    closed = false;
    wakes = 0;
    last_item_us = min_int;
  }

let rec insert it = function
  | [] -> [ it ]
  | hd :: tl ->
      if it.at < hd.at || (it.at = hd.at && it.seq < hd.seq) then it :: hd :: tl
      else hd :: insert it tl

(* The helpers below run with [mutex] held. *)

let claim_wake t =
  let claimed = t.parked > 0 && not t.pending in
  if claimed then begin
    t.pending <- true;
    t.wakes <- t.wakes + 1;
    t.fd_users <- t.fd_users + 1
  end;
  claimed

let close_fds t =
  Unix.close t.wake_r;
  Unix.close t.wake_w

let release_fds t =
  t.fd_users <- t.fd_users - 1;
  if t.closed && t.fd_users = 0 then close_fds t

let wake_byte = Bytes.make 1 '!'

(* Without [mutex]: deliver a claimed wake. *)
let write_wake t =
  ignore (Unix.single_write t.wake_w wake_byte 0 1);
  Mutex.lock t.mutex;
  release_fds t;
  Mutex.unlock t.mutex

let put t ~deliver_at v =
  Mutex.lock t.mutex;
  let it = { at = deliver_at; seq = t.next_seq; v } in
  t.next_seq <- t.next_seq + 1;
  t.items <- insert it t.items;
  (* Only a new head can move a parked taker's wake-up time earlier. *)
  let wake =
    (match t.items with hd :: _ -> hd == it | [] -> false)
    && (not t.closed) && claim_wake t
  in
  Mutex.unlock t.mutex;
  if wake then write_wake t

(* Without [mutex]: wait on the pipe for at most [timeout] seconds
   (negative: forever); [true] if this taker consumed the wake byte. *)
let park t timeout =
  match Unix.select [ t.wake_r ] [] [] timeout with
  | [], _, _ -> false
  | _ :: _, _, _ -> (
      match Unix.read t.wake_r (Bytes.create 1) 0 1 with
      | n -> n = 1
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          false (* another taker read it *))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let take t ~deadline =
  Mutex.lock t.mutex;
  let rec loop () =
    let now = Prelude.Mclock.now_us () in
    match t.items with
    | hd :: tl
      when hd.at <= now
           && (match deadline with None -> true | Some d -> hd.at <= d) ->
        t.items <- tl;
        t.last_item_us <- now;
        Mutex.unlock t.mutex;
        Some hd.v
    | items -> (
        (* Earliest future instant anything can change on its own. *)
        let target =
          match (items, deadline) with
          | [], None -> None
          | hd :: _, None -> Some hd.at
          | [], Some d -> Some d
          | hd :: _, Some d -> Some (min hd.at d)
        in
        match (deadline, target) with
        | Some d, _ when now >= d ->
            Mutex.unlock t.mutex;
            None
        | _, None when t.closed ->
            Mutex.unlock t.mutex;
            None
        | _, Some tgt when t.closed ->
            Mutex.unlock t.mutex;
            Prelude.Mclock.sleep_us (tgt - now);
            Mutex.lock t.mutex;
            loop ()
        | _ ->
            let rearm =
              match target with
              | Some tgt ->
                  tgt - now > rearm_us
                  && now - t.last_item_us < busy_us
                  && Atomic.compare_and_set rearm_token false true
              | None -> false
            in
            let timeout =
              match target with
              | None -> -1.0
              | Some _ when rearm -> float_of_int rearm_us *. 1e-6
              | Some tgt ->
                  (* [Unix.select] truncates to whole µs; the half µs keeps
                     a float just under [tgt - now] from waking 1 µs early
                     and paying a second timer's slack. *)
                  (float_of_int (tgt - now) +. 0.5) *. 1e-6
            in
            t.parked <- t.parked + 1;
            t.fd_users <- t.fd_users + 1;
            Mutex.unlock t.mutex;
            let consumed = park t timeout in
            if rearm then Atomic.set rearm_token false;
            Mutex.lock t.mutex;
            t.parked <- t.parked - 1;
            if consumed then t.pending <- false;
            release_fds t;
            loop ())
  in
  loop ()

let length t =
  Mutex.lock t.mutex;
  let n = List.length t.items in
  Mutex.unlock t.mutex;
  n

let close t =
  Mutex.lock t.mutex;
  let first = not t.closed in
  t.closed <- true;
  let wake = first && claim_wake t in
  if first && t.fd_users = 0 then close_fds t;
  Mutex.unlock t.mutex;
  if wake then write_wake t

let wakes t =
  Mutex.lock t.mutex;
  let n = t.wakes in
  Mutex.unlock t.mutex;
  n
