(** Blocking, delivery-time-ordered mailbox — the primitive under both the
    in-process transport and each replica's event loop.

    Every item carries a [deliver_at] time (microseconds, {!Prelude.Mclock}
    timeline).  {!take} only surfaces items whose delivery time has passed,
    which is how the delay-injecting transport turns a sampled message delay
    into an actual one: the message sits *in the receiver's mailbox* until
    it is ripe.  Items ripen in ([deliver_at], insertion) order, so two
    messages on the same link never reorder.

    Waiting is event-driven.  A taker that has nothing ripe parks in
    [select] on the mailbox's own wake pipe, with the time left until the
    earlier of its deadline and the head item's [deliver_at] as the
    timeout; bounded and unbounded waits share this one path.  {!put}
    writes a single wake byte only while a taker is parked and no wake
    byte is already pending, so an uncontended [put] costs no syscall and
    a parked taker notices a [put] at OS wakeup latency, not at the end of
    a polling slice.

    Deadline precision is the kernel's timer precision: a bounded wait
    returns no earlier than its deadline and late only by the wakeup
    latency plus the calling thread's timer slack.  The CLI and every
    replica thread lower their timer slack to 1 µs (Linux's default is
    50 µs), see {!Prelude.Mclock.set_timer_slack_ns}.

    One taker per process at a time re-arms a bounded wait on a busy
    mailbox (one that delivered an item in the last 5 ms) every 100 µs
    instead of sleeping to the deadline in one piece: on VMs whose idle
    vCPUs halt, a wakeup aimed at a long-halted vCPU pays the host's
    reschedule latency, and the re-arming taker keeps a vCPU responsive.
    No taker wakes on its own while its mailbox is idle.

    Each mailbox owns two file descriptors (the pipe) until {!close}. *)

type 'a t

val create : unit -> 'a t

val put : 'a t -> deliver_at:int -> 'a -> unit
(** Insert an item that becomes visible to {!take} once
    [Prelude.Mclock.now_us () >= deliver_at], waking a parked taker.
    After {!close} the item is still queued, but nobody is woken. *)

val take : 'a t -> deadline:int option -> 'a option
(** Block until an item is ripe, then remove and return the earliest one —
    except that an item is only returned if its [deliver_at] is at or
    before [deadline], and [None] is returned as soon as the deadline
    itself has passed, never before.  Thus a caller multiplexing the
    mailbox with its own timer wheel processes mailbox items and timer
    firings in global chronological order even when it is running late.
    [deadline:None] waits indefinitely.

    On a closed mailbox [take] never blocks on a [put]: it still returns
    ripe items and honours [deadline] (sleeping until it, or until the
    head item ripens), but [deadline:None] with nothing ripe returns
    [None] at once — the signal a consumer loop uses to exit. *)

val length : 'a t -> int

val close : 'a t -> unit
(** Release the wake pipe and wake every parked taker (see {!take} for
    what they then see).  Idempotent.  The descriptors are closed by the
    last taker to leave [select], never under a parked one. *)

val wakes : 'a t -> int
(** Wake bytes {!put} has written so far — the observable cost of waking
    a parked taker, exposed for tests. *)
