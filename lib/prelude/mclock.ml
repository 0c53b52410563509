(** Monotonized [Unix.gettimeofday] in microseconds — see the interface for
    why this exists.  The monotonization is a single global atomic
    max-register shared by every domain: a reader publishes the raw reading
    with a CAS loop and returns the largest value ever published. *)

let last = Atomic.make 0

let now_us () =
  let raw = int_of_float (Unix.gettimeofday () *. 1e6) in
  let rec publish () =
    let prev = Atomic.get last in
    if raw <= prev then prev
    else if Atomic.compare_and_set last prev raw then raw
    else publish ()
  in
  publish ()

let sleep_us us = if us > 0 then Unix.sleepf (float_of_int us *. 1e-6)

(* [/proc/<tid>/timerslack_ns] names one thread, and a thread may always
   set its own; [/proc/thread-self] links to [<pid>/task/<tid>]. *)
let set_timer_slack_ns ns =
  try
    let tid = Filename.basename (Unix.readlink "/proc/thread-self") in
    Out_channel.with_open_text
      (Printf.sprintf "/proc/%s/timerslack_ns" tid)
      (fun oc -> output_string oc (string_of_int ns))
  with Sys_error _ | Unix.Unix_error _ -> ()
