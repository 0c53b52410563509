(** Monotonic wall-clock shim for the live runtime.

    The simulator measures time in abstract integer ticks; the live runtime
    ({!Runtime}) needs a real clock with the same integer arithmetic.  We
    standardise on **microseconds**, matching the "think microseconds"
    convention of {!Ticks}, so the [d]/[u]/[ε]/[X] parameters of
    {!Core.Params} carry over unchanged between simulated and live runs.

    OCaml's stdlib exposes no monotonic clock without external packages
    ([Mtime]), so this is a shim over [Unix.gettimeofday] that is
    *monotonized*: concurrent readers in any domain observe non-decreasing
    values even if the wall clock steps backwards (NTP adjustment); after a
    backward step the clock holds still until real time catches up. *)

val now_us : unit -> int
(** Current time in microseconds since the Unix epoch, monotonized across
    all domains. *)

val sleep_us : int -> unit
(** Block the calling domain for (at least) the given number of
    microseconds; no-op when non-positive.  Actual resolution is the OS
    scheduler's (tens of microseconds on Linux). *)

val set_timer_slack_ns : int -> unit
(** Set the calling thread's timer slack — how far the kernel may defer a
    timed wakeup to batch it with others (Linux's default is 50 µs) — by
    writing its [/proc/<tid>/timerslack_ns].  Threads and domains inherit
    the slack of the thread that spawns them, so called from the main
    thread before any spawn it covers the whole process.  Best-effort: a
    no-op where the file is missing or not writable. *)
