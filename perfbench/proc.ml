(* Replica processes: spawning, liveness, CPU and memory from /proc, and
   teardown.  Every child is registered so that an interrupted or timed-out
   benchmark can still kill it; children also get [--watch-parent], so a
   benchmark that dies outright takes its replicas with it. *)

type child = {
  idx : int;  (** replica pid *)
  os_pid : int;
  mutable alive : bool;
  mutable status : Unix.process_status option;
  mutable expected_death : bool;  (** a deliberate kill, not a failure *)
  mutable died_unexpectedly : bool;
  lines : (int * string) list ref;  (** (arrival µs, line), newest first *)
  lines_lock : Mutex.t;
  reader : Thread.t;
}

let registry : int list ref = ref []
let registry_lock = Mutex.create ()

let with_registry f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

(* SIGKILL everything still registered and wait for each to end; used on
   abort, interrupt and exit. *)
let kill_all () =
  with_registry (fun () ->
      List.iter
        (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
        !registry;
      let rec reap p =
        match Unix.waitpid [] p with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap p
        | exception Unix.Unix_error _ -> ()  (* already reaped elsewhere *)
      in
      List.iter reap !registry;
      registry := [])

let () = at_exit kill_all

(* Ports outside Linux's ephemeral range (32768–60999), so a just-probed
   port cannot meanwhile become some connection's source port; the start
   is drawn per process so concurrent benchmarks do not collide. *)
let free_ports k =
  let bindable p =
    let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close s)
      (fun () ->
        match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  in
  let rng = Prelude.Rng.make (Prelude.Rng.hash [ Unix.getpid (); Prelude.Mclock.now_us () ]) in
  let rec pick acc =
    if List.length acc = k then Array.of_list (List.rev acc)
    else
      let p = 20_000 + Prelude.Rng.int rng 12_000 in
      if List.mem p acc || not (bindable p) then pick acc else pick (p :: acc)
  in
  pick []

let spawn ~idx argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let os_pid =
    with_registry (fun () ->
        let p = Unix.create_process argv.(0) argv devnull wr wr in
        registry := p :: !registry;
        p)
  in
  Unix.close wr;
  Unix.close devnull;
  let lines = ref [] and lines_lock = Mutex.create () in
  let reader =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr rd in
        (try
           while true do
             let l = input_line ic in
             let now = Prelude.Mclock.now_us () in
             Mutex.lock lines_lock;
             lines := (now, l) :: !lines;
             Mutex.unlock lines_lock
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr ic)
      ()
  in
  {
    idx;
    os_pid;
    alive = true;
    status = None;
    expected_death = false;
    died_unexpectedly = false;
    lines;
    lines_lock;
    reader;
  }

let lines c =
  Mutex.lock c.lines_lock;
  let l = List.rev !(c.lines) in
  Mutex.unlock c.lines_lock;
  l

let reaped c status =
  c.alive <- false;
  c.status <- Some status;
  c.died_unexpectedly <- not c.expected_death;
  with_registry (fun () -> registry := List.filter (( <> ) c.os_pid) !registry)

(* Non-blocking liveness check; [false] once the child has been reaped. *)
let poll c =
  (if c.alive then
     match Unix.waitpid [ Unix.WNOHANG ] c.os_pid with
     | 0, _ -> ()
     | _, status -> reaped c status
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  c.alive

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s when s = Sys.sigkill -> "killed by SIGKILL"
  | Unix.WSIGNALED s when s = Sys.sigterm -> "killed by SIGTERM"
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* ---- /proc readings ---- *)

(* USER_HZ, the unit of /proc/<pid>/stat CPU times, is 100 on Linux. *)
let clk_tck = 100.

let read_file path =
  match open_in path with
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))
  | exception Sys_error _ -> None

(* user + sys CPU seconds of the whole process (all threads). *)
let cpu_s c =
  match read_file (Printf.sprintf "/proc/%d/stat" c.os_pid) with
  | None -> None
  | Some s -> (
      (* The command name may hold spaces, so count fields from the last
         ')': state is field 3, utime 14 and stime 15. *)
      let from = String.rindex s ')' + 2 in
      let fields =
        Array.of_list
          (String.split_on_char ' ' (String.sub s from (String.length s - from)))
      in
      if Array.length fields < 13 then None
      else
        Some
          ((float_of_string fields.(11) +. float_of_string fields.(12))
          /. clk_tck))

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mib c =
  match read_file (Printf.sprintf "/proc/%d/status" c.os_pid) with
  | None -> None
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
                 Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                     float_of_int kb /. 1024.)
             | _ -> None)

(* Host-wide (steal, total) CPU ticks from /proc/stat: time the hypervisor
   ran someone else while this machine's vCPUs wanted to run.  Steal
   explains runs that read slow for reasons outside the program. *)
let host_ticks () =
  match read_file "/proc/stat" with
  | None -> (0, 0)
  | Some s -> (
      match String.split_on_char '\n' s with
      | first :: _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' first) with
          | "cpu" :: fields ->
              let v = List.map int_of_string fields in
              ((match List.nth_opt v 7 with Some st -> st | None -> 0), List.fold_left ( + ) 0 v)
          | _ -> (0, 0))
      | [] -> (0, 0))

(* ---- teardown ---- *)

let rec wait_blocking c =
  match Unix.waitpid [] c.os_pid with
  | _, status -> reaped c status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_blocking c

let kill c =
  c.expected_death <- true;
  (try Unix.kill c.os_pid Sys.sigkill with Unix.Unix_error _ -> ());
  wait_blocking c

(* SIGTERM every live child, give them [grace_us] to exit cleanly, then
   SIGKILL the rest; reap all and join the log readers. *)
let stop ?(grace_us = 5_000_000) children =
  Array.iter
    (fun c ->
      c.expected_death <- true;
      if c.alive then try Unix.kill c.os_pid Sys.sigterm with Unix.Unix_error _ -> ())
    children;
  let deadline = Prelude.Mclock.now_us () + grace_us in
  let any_alive () = Array.fold_left (fun acc c -> poll c || acc) false children in
  while any_alive () && Prelude.Mclock.now_us () < deadline do
    Prelude.Mclock.sleep_us 5_000
  done;
  Array.iter (fun c -> if c.alive then kill c) children;
  Array.iter (fun c -> Thread.join c.reader) children
