(* Bound-overhead benchmark for live TCP clusters.

   Algorithm 1 fixes each class's latency exactly — MOP ε + X, AOP
   d + ε − X, OOP ≤ d + ε — so "client-observed latency minus the class
   bound" is a well-defined ruler.  This program spawns the binaries users
   deploy ([timebounds serve] / [timebounds shards serve]) on loopback,
   drives them with 2 closed-loop clients on 2 connections through the
   public [Net.Client] (and [Shard.Directory] when sharded), checks every
   history with the segmented linearizability checker, and prints the
   end-to-end metrics ([--trace 0]) or the per-layer split ([--trace 1]:
   the same process run plus an in-process run of three [Net.Serve] stacks
   behind a timing transport wrapper).  Every layer is timed from outside,
   through calls into its public functions.

   Usage (normally through run.py, which builds first):
     perfbench.exe --workload kv-mixed --seed 1 --seconds 20 --trace 0
       --exe _build/default/bin/timebounds.exe --work .perfbench-work

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module W = Net.Wire.Kv_wired
module D = Spec.Kv_map
module Cl = Net.Client.Make (W)
module Gen = Runtime.Loadgen.Make (W.L)
module C = Net.Codec.Make (W.C)
module P = Net.Persist.Make (W.C)
module S = Net.Serve.Make (W)
module NC = Net.Cluster.Make (W)
module T = Runtime.Transport_intf

let now = Prelude.Mclock.now_us
let host = "127.0.0.1"

(* ---- fixed deployment: the CLI defaults ---- *)

let n = 3
let clients = 2  (* on replicas 0 and 1; replica 2 only replicates *)

(* Ops per client between quiescent cuts: 2 × 28 = 56 stays under the
   Wing–Gong checker's 62-operation segment limit. *)
let round_per_client = 28
let d = 2000
let u = 500
let slack = 5000
let x = 0
let eps = Core.Params.optimal_eps ~n ~u
let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x ()

(* Class bounds under the effective parameters, indexed MOP/AOP/OOP. *)
let bound =
  let t = params.Core.Params.timing in
  [|
    t.Core.Params.mutator_wait;
    t.Core.Params.accessor_wait;
    params.Core.Params.d + params.Core.Params.eps;
  |]

let class_names = [| "mop"; "aop"; "oop" |]

let class_of op =
  match D.classify op with
  | Spec.Data_type.Pure_mutator -> 0
  | Spec.Data_type.Pure_accessor -> 1
  | Spec.Data_type.Other -> 2

(* A reply slower than this is a wedged replica, not a latency sample. *)
let op_timeout_us = 5_000_000

(* Setups per [--trace 0] run, the measured run's own included; setup_s is
   their median. *)
let setups = 11

(* ---- workloads ---- *)

type stack = Unsharded | Sharded of { shards : int; keys : int; theta : float }

type workload = {
  name : string;
  stack : stack;
  mix : int * int * int;  (** MOP : AOP : OOP weights *)
  durable : bool;  (** [--durable] with [--fsync never] *)
  fallback : bool;  (** [--fallback quorum], default heartbeat/suspicion *)
  kill_after : int option;
      (** SIGKILL replica 2 for good after this many measured completions *)
  think_us : int;
      (** seeded think time before each op, uniform in [0, think_us).  With
          the fallback armed, responses are released by peer heartbeats;
          a client with no think time invokes its next op right after one
          arrives, locks onto the 2.5 ms heartbeat trains, and each cluster
          instance then reads a different AOP overhead (0.6–2.9 ms) set by
          the trains' relative phase.  One heartbeat period of think time
          samples every phase. *)
}

let workloads =
  [
    {
      name = "kv-mixed";
      stack = Unsharded;
      mix = (50, 40, 10);
      durable = false;
      fallback = false;
      kill_after = None;
      think_us = 0;
    };
    {
      name = "kv-sharded-writes";
      stack = Sharded { shards = 8; keys = 100_000; theta = 0.99 };
      mix = (80, 15, 5);
      durable = true;
      fallback = false;
      kill_after = None;
      think_us = 0;
    };
    {
      name = "kv-failover";
      stack = Unsharded;
      mix = (50, 40, 10);
      durable = false;
      fallback = true;
      kill_after = Some 500;
      think_us = Quorum.Config.default.Quorum.Config.hb_us;
    };
  ]

(* Durable and fallback clusters get idempotent clients: op ids, and
   retries of timeouts, sheds and "retry" answers under the same id. *)
let idempotent wl = wl.durable || wl.fallback

(* Hosts never see the ring; only the clients resolve keys, so any fixed
   seed is a valid deployment. *)
let ring_seed = 0

(* ---- seeded operation streams ---- *)

type gen = {
  draw : Prelude.Rng.t -> int * D.op;  (** (shard, op) *)
  setup_op : Prelude.Rng.t -> int * D.op;
      (** the first op of every connection: a mutator, so setup time is
          spawn + connect + ε rather than a protocol hold *)
  dir : Shard.Directory.t option;
}

let make_gen wl =
  let m, a, o = wl.mix in
  let total = m + a + o in
  match wl.stack with
  | Unsharded ->
      {
        draw = (fun rng -> (0, NC.draw rng wl.mix total));
        setup_op = (fun rng -> (0, W.L.sample_mutator rng));
        dir = None;
      }
  | Sharded { shards; keys; theta } ->
      let dir = Shard.Directory.make ~seed:ring_seed ~shards ~n () in
      let zipf = Runtime.Workloads.Zipf.make ~n:keys ~theta in
      let at key op = ((Shard.Directory.locate dir ~key).Shard.Directory.shard, op) in
      {
        draw =
          (fun rng ->
            let key = Runtime.Workloads.Zipf.sample zipf rng in
            let toss = Prelude.Rng.int rng total in
            at key
              (if toss < m then
                 if Prelude.Rng.int rng 10 < 8 then
                   D.Put (key, Prelude.Rng.int rng 1000)
                 else D.Del key
               else if toss < m + a then D.Get key
               else D.Swap (key, Prelude.Rng.int rng 1000)));
        setup_op =
          (fun rng ->
            let key = Runtime.Workloads.Zipf.sample zipf rng in
            at key (D.Put (key, Prelude.Rng.int rng 1000)));
        dir = Some dir;
      }

let key_of = function D.Put (k, _) | D.Del k | D.Get k | D.Swap (k, _) -> k

(* Clock offsets are part of the deployment, not of the seeded input: the
   full admissible skew, spread evenly (0, ε/2, ε), so every seed runs the
   same cluster and varies only the op streams. *)
let offsets = Array.init n (fun i -> i * eps / (n - 1))

(* The clients' op streams derive from the run seed and the cluster
   instance.  Each instance draws its own streams: repeating one stream in
   every cluster of a run would leave the run's figures set by which few
   ops of a rare class that one stream happens to hold. *)
let seeded seed ~instance =
  let rest = ref (Prelude.Rng.make (Prelude.Rng.hash [ seed; instance ])) in
  let client_rngs =
    Array.init clients (fun _ ->
        let mine, r = Prelude.Rng.split !rest in
        rest := r;
        mine)
  in
  client_rngs

(* ---- barrier with a leader action ---- *)

(* The last client to arrive runs [release] (recording the quiescent cut
   and deciding whether another round follows) before waking the rest, so
   every client sees the same decision. *)
module Barrier = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable waiting : int;
    mutable gen : int;
    mutable go_on : bool;
    release : unit -> bool;
  }

  let create release =
    {
      m = Mutex.create ();
      c = Condition.create ();
      waiting = 0;
      gen = 0;
      go_on = true;
      release;
    }

  let await b =
    Mutex.lock b.m;
    let g = b.gen in
    b.waiting <- b.waiting + 1;
    if b.waiting = clients then begin
      b.waiting <- 0;
      (b.go_on <-
         try b.release ()
         with e ->
           Printf.eprintf "perfbench: barrier release failed: %s\n%!"
             (Printexc.to_string e);
           false);
      b.gen <- g + 1;
      Condition.broadcast b.c
    end
    else
      while b.gen = g do
        Condition.wait b.c b.m
      done;
    let r = b.go_on in
    Mutex.unlock b.m;
    r
end

(* ---- the closed-loop clients ---- *)

type op_rec = {
  wid : int;
  shard : int;
  cls : int;
  op : D.op;
  result : D.result;
  t0 : int;  (** absolute µs, first attempt *)
  t1 : int;  (** absolute µs, successful reply *)
  measured : bool;
}

type client_out = {
  recs : op_rec list;  (** newest first *)
  attempted : int;
  failed : int;
  sheds : int;
  retries : int;
  error : string option;
}

type drive = {
  epoch : int;
  window_us : int;  (** measured window length *)
  measure : bool;  (** false: a setup-only repetition *)
  abort : bool Atomic.t;
  measured_done : int Atomic.t;
  mutable releases : int;
  mutable cuts : int list;  (** µs since epoch *)
  mutable setup_end : int;
  mutable window_start : int;
  mutable window_end : int;
  on_window_start : unit -> unit;
  on_window_end : unit -> unit;
}

let release dr () =
  let t = now () in
  dr.cuts <- (t - dr.epoch) :: dr.cuts;
  dr.releases <- dr.releases + 1;
  if Atomic.get dr.abort then begin
    if dr.window_end = 0 then dr.window_end <- t;
    false
  end
  else
    match dr.releases with
    | 1 ->
        dr.setup_end <- t;
        dr.measure
    | 2 ->
        (* the warm-up round is over *)
        dr.window_start <- t;
        dr.on_window_start ();
        true
    | _ ->
        if t - dr.window_start >= dr.window_us then begin
          dr.window_end <- t;
          dr.on_window_end ();
          false
        end
        else true

let contains e sub =
  let ls = String.length sub and le = String.length e in
  let rec go i = i + ls <= le && (String.sub e i ls = sub || go (i + 1)) in
  go 0

let client ~wl ~gen ~seed ~dr ~barrier ~ports ~rng ~wid () =
  let recs = ref [] and attempted = ref 0 and failed = ref 0 in
  let sheds = ref 0 and retries = ref 0 and error = ref None in
  let fail e =
    if !error = None then error := Some e;
    Atomic.set dr.abort true
  in
  let connect port =
    Cl.connect ~host ~port ~attempts:5000 ~retry_delay_us:1000 ()
  in
  (* Readiness, as [timebounds cluster] does it: every replica must accept
     connections before the first op.  Peer links are opened lazily by the
     first frame sent on them; one opened while its peer is still starting
     backs off for longer than d, and Algorithm 1 then answers from a
     replica that has not seen every entry (see the notes). *)
  Array.iter
    (fun p -> match connect p with Ok c -> Cl.close c | Error e -> fail e)
    ports;
  let conn = ref None in
  (match connect ports.(wid) with Ok c -> conn := Some c | Error e -> fail e);
  let seq = ref 0 in
  let rec attempt ~op_id ~shard op tries backoff =
    match !conn with
    | None -> (
        match connect ports.(wid) with
        | Ok c ->
            conn := Some c;
            attempt ~op_id ~shard op tries backoff
        | Error e -> Error e)
    | Some c -> (
        match Cl.invoke ~op_id ~shard ~timeout_us:op_timeout_us c op with
        | Ok r -> Ok r
        | Error e ->
            if contains e "shed" then incr sheds;
            if
              op_id <> 0 && Cl.retryable e && tries < 25
              && not (Atomic.get dr.abort)
            then begin
              (* A timed-out reply may still arrive: start afresh. *)
              incr retries;
              Cl.close c;
              conn := None;
              let jitter =
                Prelude.Rng.hash [ seed; wid; op_id; tries ] mod (1 + (backoff / 2))
              in
              Prelude.Mclock.sleep_us (backoff + jitter);
              attempt ~op_id ~shard op (tries + 1) (min (2 * backoff) 200_000)
            end
            else Error e)
  in
  let run_op ~measured (shard, op) =
    if not (Atomic.get dr.abort) then begin
      incr attempted;
      incr seq;
      let op_id = if idempotent wl then (!seq * clients) + wid else 0 in
      let t0 = now () in
      match attempt ~op_id ~shard op 0 10_000 with
      | Ok result ->
          let t1 = now () in
          recs :=
            { wid; shard; cls = class_of op; op; result; t0; t1; measured }
            :: !recs;
          if measured then Atomic.incr dr.measured_done
      | Error e ->
          incr failed;
          fail e
      | exception e ->
          (* Keep meeting the barrier: the other client is waiting there. *)
          incr failed;
          fail ("client exception: " ^ Printexc.to_string e)
    end
  in
  run_op ~measured:false (gen.setup_op rng);
  let round = ref 0 in
  while Barrier.await barrier do
    let measured = !round > 0 in
    for _ = 1 to round_per_client do
      if wl.think_us > 0 then
        Prelude.Mclock.sleep_us (Prelude.Rng.int rng wl.think_us);
      run_op ~measured (gen.draw rng)
    done;
    incr round
  done;
  Option.iter Cl.close !conn;
  {
    recs = !recs;
    attempted = !attempted;
    failed = !failed;
    sheds = !sheds;
    retries = !retries;
    error = !error;
  }

(* Run the two clients against [ports] until the window closes.  The
   calling domain supervises: [poll] reports an unexpected replica death,
   [kill] is the failover's deliberate crash, fired once [kill_after]
   measured ops have completed. *)
let drive ~wl ~gen ~seed ~ports ~epoch ~window_us ~measure ~rngs
    ?(on_window_start = ignore) ?(on_window_end = ignore)
    ?(poll = fun () -> None) ?(kill = ignore) ~stuck () =
  let dr =
    {
      epoch;
      window_us;
      measure;
      abort = Atomic.make false;
      measured_done = Atomic.make 0;
      releases = 0;
      cuts = [];
      setup_end = 0;
      window_start = 0;
      window_end = 0;
      on_window_start;
      on_window_end;
    }
  in
  let barrier = Barrier.create (release dr) in
  let finished = Atomic.make 0 in
  let doms =
    List.init clients (fun wid ->
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.incr finished)
              (client ~wl ~gen ~seed ~dr ~barrier ~ports
                 ~rng:rngs.(wid) ~wid)))
  in
  let death = ref None and kill_t = ref None in
  (* Setup, warm-up and the window take well under a minute past the
     window; past that a client is wedged, and tearing the cluster down
     turns the hang into a reported failure. *)
  let give_up_at = now () + window_us + 60_000_000 and gave_up = ref false in
  while Atomic.get finished < clients do
    if (not !gave_up) && now () > give_up_at then begin
      gave_up := true;
      Printf.eprintf
        "perfbench: clients wedged (%d barrier releases, %d measured ops, %d \
         clients done); tearing the cluster down\n%!"
        dr.releases (Atomic.get dr.measured_done) (Atomic.get finished);
      if !death = None then death := Some "clients wedged";
      Atomic.set dr.abort true;
      stuck ()
    end;
    (match poll () with
    | Some why when !death = None ->
        death := Some why;
        Atomic.set dr.abort true
    | _ -> ());
    (match wl.kill_after with
    | Some k when measure && !kill_t = None && Atomic.get dr.measured_done >= k
      ->
        kill_t := Some (now ());
        kill ()
    | _ -> ());
    (* Coarse on purpose: every wakeup here competes with the clients and
       replicas for the same two cores. *)
    Prelude.Mclock.sleep_us 20_000
  done;
  let outs = List.map Domain.join doms in
  (dr, outs, !death, !kill_t)

(* ---- linearizability ---- *)

type check = { segments : int; unchecked : int; violation : string option }

let group_by_shard recs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.replace tbl r.shard
        (r :: Option.value (Hashtbl.find_opt tbl r.shard) ~default:[]))
    recs;
  tbl

(* Each shard is an independent object, so each gets its own segmented
   check; linearizability composes. *)
let check_history ~epoch ~cuts recs =
  let cuts = List.sort compare cuts in
  Hashtbl.fold
    (fun shard rs acc ->
      let entries =
        List.map
          (fun r ->
            {
              Gen.Lin.pid = r.wid;
              op = r.op;
              result = r.result;
              invoke = r.t0 - epoch;
              response = r.t1 - epoch;
            })
          rs
        |> List.sort (fun (a : Gen.Lin.entry) b ->
               compare (a.Gen.Lin.invoke, a.Gen.Lin.pid)
                 (b.Gen.Lin.invoke, b.Gen.Lin.pid))
      in
      match Gen.check_history entries cuts with
      | Runtime.Loadgen.Linearizable k -> { acc with segments = acc.segments + k }
      | Runtime.Loadgen.Unchecked _ -> { acc with unchecked = acc.unchecked + 1 }
      | Runtime.Loadgen.Violation { segment; reason } ->
          {
            acc with
            violation =
              Some (Printf.sprintf "shard %d segment %d: %s" shard segment reason);
          })
    (group_by_shard recs)
    { segments = 0; unchecked = 0; violation = None }

(* ---- one run against spawned replica processes ---- *)

type proc_run = {
  p_dr : drive;
  p_outs : client_out list;
  p_failure : string option;  (** abort, unexpected death or client error *)
  p_spawn_t : int;
  p_kill_t : int option;
  p_switch_t : int option;  (** first "mode: quorum" line from a survivor *)
  p_cpu_s : float;  (** replicas' user + sys CPU in the scored window *)
  p_rss_mib : float;
  p_client_cpu_s : float;  (** this process's CPU in the scored window *)
  p_steal : float;  (** host CPU steal share in the scored window *)
  p_stats : T.stats list;  (** Stats_req from each live replica *)
  p_connect_ms : float list;
  p_store_bytes : int;
  p_check : check;
  p_check_s : float;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + du (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let spawn_cluster ~exe ~wl ~epoch ~dir =
  let ports = Proc.free_ports n in
  let peers = NC.peers_of ~host ~ports in
  let argv i =
    match wl.stack with
    | Unsharded ->
        NC.serve_argv ~exe ~peers ~pid:i ~d ~u ~eps ~x ~slack
          ~offset:offsets.(i) ~epoch ~chaos:None ~trace:None
          ~durable:None ~fsync:"never" ~snapshot_every:0
          ~fallback:(if wl.fallback then Some Quorum.Config.default else None)
          ~sync:None
    | Sharded { shards; _ } ->
        (* Snapshots are off: a checkpoint landing inside some windows and
           not others would make CPU and tail latency bimodal. *)
        Shard.Shard_cluster.serve_argv ~exe ~peers ~pid:i ~shards ~d ~u ~eps
          ~x ~slack ~offset:offsets.(i) ~epoch ~chaos:None ~trace:None
          ~durable:
            (if wl.durable then
               Some (Filename.concat dir (Printf.sprintf "replica-%d" i))
             else None)
          ~fsync:"never" ~snapshot_every:0
  in
  (ports, Array.init n (fun i -> Proc.spawn ~idx:i (argv i)))

let run_processes ~exe ~work ~wl ~gen ~seed ~instance ~window_us ~measure ~tag =
  let rngs = seeded seed ~instance in
  let dir = Filename.concat work (Printf.sprintf "cluster-%s" tag) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let spawn_t = now () in
  let ports, children = spawn_cluster ~exe ~wl ~epoch:spawn_t ~dir in
  (* The scored window opens after the warm-up round and closes at its
     end — or, on the failover workload, at the kill: the end-to-end
     numbers there describe the armed fast path, and the crash itself is
     reported by outage_ms and the quorum rows. *)
  let cpu_at = Array.make n 0. and cpu_start = Array.make n 0. in
  let rss = Array.make n 0. in
  let sample_child c =
    Option.iter (fun v -> cpu_at.(c.Proc.idx) <- v) (Proc.cpu_s c);
    Option.iter (fun v -> rss.(c.Proc.idx) <- v) (Proc.peak_rss_mib c)
  in
  let client_cpu0 = ref 0. and client_cpu = ref 0. in
  let host0 = ref (0, 0) and steal = ref 0. in
  let closed = ref false and close_lock = Mutex.create () in
  let on_window_start () =
    Array.iter sample_child children;
    Array.blit cpu_at 0 cpu_start 0 n;
    client_cpu0 := self_cpu_s ();
    host0 := Proc.host_ticks ()
  in
  let close_window () =
    Mutex.lock close_lock;
    if not !closed then begin
      closed := true;
      Array.iter (fun c -> if c.Proc.alive then sample_child c) children;
      client_cpu := self_cpu_s () -. !client_cpu0;
      let s1, t1 = Proc.host_ticks () and s0, t0 = !host0 in
      steal := float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0))
    end;
    Mutex.unlock close_lock
  in
  let poll () =
    Array.fold_left
      (fun acc c ->
        match acc with
        | Some _ -> acc
        | None ->
            ignore (Proc.poll c);
            if c.Proc.died_unexpectedly then
              Some
                (Printf.sprintf "replica %d %s mid-run" c.Proc.idx
                   (Proc.status_string (Option.get c.Proc.status)))
            else None)
      None children
  in
  let kill () =
    close_window ();
    Proc.kill children.(n - 1)
  in
  let dr, outs, death, kill_t =
    drive ~wl ~gen ~seed ~ports ~epoch:spawn_t ~window_us ~measure ~rngs
      ~on_window_start ~on_window_end:close_window ~poll ~kill
      ~stuck:(fun () -> Array.iter (fun c -> if c.Proc.alive then Proc.kill c) children)
      ()
  in
  let live = List.filter (fun c -> c.Proc.alive) (Array.to_list children) in
  let stats, connect_ms =
    if not measure then ([], [])
    else
      let stats =
        List.filter_map
          (fun c ->
            match Cl.connect ~host ~port:ports.(c.Proc.idx) ~attempts:3 () with
            | Error _ -> None
            | Ok conn ->
                let s = Cl.stats conn in
                Cl.close conn;
                Result.to_option s)
          live
      in
      (* Client.connect against a replica that is already listening. *)
      let connect_ms =
        List.init 20 (fun _ ->
            let t0 = now () in
            match Cl.connect ~host ~port:ports.(0) ~attempts:1 () with
            | Ok c ->
                let dt = float_of_int (now () - t0) /. 1000. in
                Cl.close c;
                Some dt
            | Error _ -> None)
        |> List.filter_map Fun.id
      in
      (stats, connect_ms)
  in
  let store_bytes = if wl.durable then du (Filename.concat dir "replica-0") else 0 in
  Proc.stop children;
  let switch_t =
    match
      Array.to_list children
      |> List.concat_map Proc.lines
      |> List.filter_map (fun (t, l) ->
             if contains l "mode: quorum" then Some t else None)
      |> List.sort compare
    with
    | [] -> None
    | first :: _ -> Some first
  in
  rm_rf dir;
  let death =
    match death with
    | Some _ -> death
    | None ->
        (* a replica that died after the clients finished *)
        Array.to_list children
        |> List.find_map (fun c ->
               if c.Proc.died_unexpectedly then
                 Some (Printf.sprintf "replica %d died" c.Proc.idx)
               else None)
  in
  let recs = List.concat_map (fun o -> o.recs) outs in
  let t_check = now () in
  let check = check_history ~epoch:spawn_t ~cuts:dr.cuts recs in
  let check_s = float_of_int (now () - t_check) /. 1e6 in
  let failure =
    match death with
    | Some _ -> death
    | None -> List.find_map (fun o -> o.error) outs
  in
  if failure <> None then
    Array.iter
      (fun c ->
        List.iter
          (fun (_, l) -> Printf.eprintf "  replica %d> %s\n" c.Proc.idx l)
          (Proc.lines c))
      children;
  {
    p_dr = dr;
    p_outs = outs;
    p_failure = failure;
    p_spawn_t = spawn_t;
    p_kill_t = kill_t;
    p_switch_t = switch_t;
    p_cpu_s =
      Array.fold_left ( +. ) 0. (Array.mapi (fun i c -> c -. cpu_start.(i)) cpu_at);
    p_rss_mib = Array.fold_left Float.max 0. rss;
    p_client_cpu_s = !client_cpu;
    p_steal = !steal;
    p_stats = stats;
    p_connect_ms = connect_ms;
    p_store_bytes = store_bytes;
    p_check = check;
    p_check_s = check_s;
  }

(* ---- the traced run: three Net.Serve stacks in this process ---- *)

type traced_run = {
  t_outs : client_out list;
  t_failure : string option;
  t_kill_t : int option;
  t_timing : Timing.t;
  t_records : S.R.record list;
  t_modes : (int * bool) list;  (** (µs, entered quorum?) per on_mode call *)
  t_check : check;
}

let run_traced ~wl ~gen ~seed ~instance ~window_us =
  let rngs = seeded seed ~instance in
  let listeners =
    Array.init n (fun _ -> Net.Tcp_transport.listen ~host ~port:0)
  in
  let addrs =
    Array.map (fun (l : Net.Tcp_transport.listener) -> (host, l.port)) listeners
  in
  let timing = Timing.create () in
  let modes = ref [] and modes_lock = Mutex.create () in
  let fallback =
    if wl.fallback then
      Some
        {
          Quorum.Config.default with
          Quorum.Config.on_mode =
            (fun ~quorum ~epoch:_ ~seq:_ ->
              Mutex.lock modes_lock;
              modes := (now (), quorum) :: !modes;
              Mutex.unlock modes_lock);
        }
    else None
  in
  let epoch = now () in
  let handles =
    Array.init n (fun pid ->
        S.start ~listener:listeners.(pid) ~wrap:(Timing.wrapper timing)
          {
            Net.Serve.pid;
            addrs;
            params;
            offset = offsets.(pid);
            start_us = Some epoch;
            trace = None;
            durable = None;
            fsync = Durable.Wal.Never;
            snapshot_every = 0;
            fallback;
            sync = None;
            log = ignore;
          })
  in
  let records = ref [] in
  let stop pid = records := fst (S.stop handles.(pid)) @ !records in
  let dr, outs, wedged, kill_t =
    drive ~wl ~gen ~seed ~ports:(Array.map snd addrs) ~epoch ~window_us
      ~measure:true ~rngs
      ~on_window_start:(fun () -> Atomic.set timing.Timing.recording true)
      ~on_window_end:(fun () -> Atomic.set timing.Timing.recording false)
      ~kill:(fun () ->
        (* the scored window ends at the kill, as in the process runs *)
        Atomic.set timing.Timing.recording false;
        stop (n - 1))
      ~stuck:(fun () -> for pid = 0 to n - 1 do stop pid done)
      ()
  in
  for pid = 0 to n - 1 do
    stop pid
  done;
  let recs = List.concat_map (fun o -> o.recs) outs in
  {
    t_outs = outs;
    t_failure =
      (match wedged with
      | Some _ -> wedged
      | None -> List.find_map (fun o -> o.error) outs);
    t_kill_t = kill_t;
    t_timing = timing;
    t_records = !records;
    t_modes = List.rev !modes;
    t_check = check_history ~epoch ~cuts:dr.cuts recs;
  }

(* ---- metrics from raw samples ---- *)

let ms_of_us v = float_of_int v /. 1000.

(* Ops whose class latency the run reports: measured ones, and on the
   failover workload only those invoked before the kill. *)
let class_ops ~kill_t recs =
  List.filter
    (fun r ->
      r.measured && match kill_t with Some k -> r.t0 < k | None -> true)
    recs

let overheads ops cls =
  List.filter_map
    (fun r ->
      if r.cls = cls then Some (float_of_int (r.t1 - r.t0 - bound.(cls))) else None)
    ops

let latencies ops cls =
  List.filter_map
    (fun r -> if r.cls = cls then Some (float_of_int (r.t1 - r.t0)) else None)
    ops

(* The longest interval with no completion: from the kill on the failover
   workload, over the whole measured window elsewhere. *)
let longest_gap_ms ~from ~until recs =
  let ends =
    List.filter_map
      (fun r -> if r.t1 >= from && r.t1 <= until then Some r.t1 else None)
      recs
    |> List.sort compare
  in
  let gap, last =
    List.fold_left
      (fun (g, prev) t -> (max g (t - prev), t))
      (0, from) ends
  in
  ms_of_us (max gap (until - last))

let sum f l = List.fold_left (fun acc v -> acc + f v) 0 l

(* ---- timing layers from outside, on the run's own inputs ---- *)

(* ns per call of [f] over [items], repeated until ≥ 50 ms have passed. *)
let ns_per_call items f =
  let items = Array.of_list items in
  if Array.length items = 0 then 0.
  else begin
    let calls = ref 0 and t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < 0.05 do
      Array.iter f items;
      calls := !calls + Array.length items
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int !calls
  end

let codec_ns recs =
  let frames =
    List.map
      (fun r ->
        C.encode
          (C.Invoke { op = r.op; trace = 0; op_id = 0; shard = r.shard; deadline = 0 }))
      recs
  in
  let encode_ns =
    ns_per_call recs (fun r ->
        ignore
          (C.encode
             (C.Invoke
                { op = r.op; trace = 0; op_id = 0; shard = r.shard; deadline = 0 })))
  in
  let decode_ns = ns_per_call frames (fun f -> ignore (C.decode f)) in
  let kib = String.init 1024 (fun i -> Char.chr (i land 0xff)) in
  let crc_ns = ns_per_call [ kib ] (fun s -> ignore (Net.Codec.crc32 s ~pos:0 ~len:1024)) in
  (encode_ns, decode_ns, crc_ns)

(* Durable.Wal.append on the run's own mutations (fsync never), and the
   bytes each one costs on disk. *)
let wal_ns ~work recs =
  let mutations =
    List.filter_map
      (fun r ->
        if r.cls = 1 then None
        else
          Some
            (P.encode_record
               { P.op = r.op; time = r.t0; pid = r.wid; op_id = 0; result = r.result }))
      recs
  in
  let path = Filename.concat work "wal-probe.log" in
  (try Sys.remove path with Sys_error _ -> ());
  let wal = Durable.Wal.create ~path ~fsync:Durable.Wal.Never in
  List.iter (Durable.Wal.append wal) mutations;
  Durable.Wal.close wal;
  let bytes = du path in
  Sys.remove path;
  let wal = Durable.Wal.create ~path ~fsync:Durable.Wal.Never in
  let ns = ns_per_call mutations (Durable.Wal.append wal) in
  Durable.Wal.close wal;
  Sys.remove path;
  (ns, bytes, List.length mutations)

(* ---- output ---- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun mt -> Printf.printf "  %-42s %14.3f %s\n" mt.name mt.value mt.unit_)
    metrics;
  let body =
    List.map
      (fun mt ->
        if not (Float.is_finite mt.value) then
          failwith (Printf.sprintf "metric %s is not finite" mt.name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.name mt.value
          mt.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " body)

let verdict_ok c = c.violation = None

let describe_check c =
  match c.violation with
  | Some v ->
      "VIOLATION " ^ if String.length v > 400 then String.sub v 0 400 ^ "..." else v
  | None ->
      Printf.sprintf "LINEARIZABLE (%d segments, %d unchecked)" c.segments
        c.unchecked


(* ---- a run's scored clusters ---- *)

let recs_of r = List.concat_map (fun o -> o.recs) r.p_outs
let scored_end r = Option.value r.p_kill_t ~default:r.p_dr.window_end

let scored_ops r =
  List.filter (fun x -> x.measured && x.t1 <= scored_end r) (recs_of r)

let scored_s r = float_of_int (scored_end r - r.p_dr.window_start) /. 1e6
let class_ops_of r = class_ops ~kill_t:r.p_kill_t (recs_of r)
let sumf f l = List.fold_left (fun acc v -> acc +. f v) 0. l

(* One measured cluster's figures.  A run reports the median over its
   clusters: a neighbour's busy spell that hits a few clusters moves a
   pooled figure but not the median.  The CPU figure is per-layer (see the
   notes), the others end-to-end. *)
let cluster_figures r =
  let ops = float_of_int (List.length (scored_ops r)) in
  let cls = class_ops_of r in
  let over c = Sample.median (overheads cls c) in
  [
    ("goodput_ops_s", ops /. scored_s r);
    ("mop_over_p50_us", over 0);
    ("aop_over_p50_us", over 1);
    ("oop_over_p50_us", over 2);
    ("server_cpu_us_per_op", r.p_cpu_s *. 1e6 /. ops);
  ]

let end_to_end ~setup_samples mains =
  let per_cluster = List.map cluster_figures mains in
  let across name unit_ =
    m name unit_ (Sample.median (List.map (List.assoc name) per_cluster))
  in
  [
    m "setup_s" "s" (Sample.median setup_samples);
    across "goodput_ops_s" "ops/s";
    across "mop_over_p50_us" "us";
    across "aop_over_p50_us" "us";
    across "oop_over_p50_us" "us";
    m "server_rss_mb" "MiB"
      (List.fold_left (fun a r -> Float.max a r.p_rss_mib) 0. mains);
  ]

(* Layers measured around the process runs: the clients' own samples,
   Stats_req from every replica, and public-function timings on the run's
   own inputs. *)
let process_layers ~wl ~gen ~work ~attempted ~failed ~all_mains mains =
  let recs = List.concat_map recs_of mains in
  let measured = List.filter (fun r -> r.measured) recs in
  let n_scored = float_of_int (sum (fun r -> List.length (scored_ops r)) mains) in
  let cls = List.concat_map class_ops_of mains in
  let over c q = Sample.quantile (overheads cls c) q in
  let stats = List.concat_map (fun r -> r.p_stats) mains in
  let links = List.filter_map (fun (s : T.stats) -> s.T.link) stats in
  let per_op v = float_of_int v /. float_of_int (List.length recs) in
  let lmax f = float_of_int (List.fold_left (fun a l -> max a (f l)) 0 links) in
  let lsum f = float_of_int (sum f links) in
  let encode_ns, decode_ns, crc_ns = codec_ns recs in
  let wal_append_ns, probe_bytes, probe_mutations = wal_ns ~work recs in
  let mutators = List.length (List.filter (fun r -> r.cls <> 1) recs) in
  let bytes_per_mutation =
    if wl.durable then
      float_of_int (sum (fun r -> r.p_store_bytes) mains) /. float_of_int mutators
    else float_of_int probe_bytes /. float_of_int (max 1 probe_mutations)
  in
  let by_shard = group_by_shard measured in
  let hot_shard, hot_ops =
    Hashtbl.fold
      (fun s rs (bs, bn) ->
        if List.length rs > bn then (s, List.length rs) else (bs, bn))
      by_shard (0, 0)
  in
  let hot_cls = List.filter (fun r -> r.shard = hot_shard) cls in
  let locate_ns =
    match gen.dir with
    | None -> 0.
    | Some dir ->
        ns_per_call (List.map (fun r -> key_of r.op) recs) (fun key ->
            ignore (Shard.Directory.locate dir ~key))
  in
  let outage_ms =
    Sample.median
      (List.map
         (fun r ->
           let from =
             Option.value r.p_kill_t ~default:r.p_dr.window_start
           in
           longest_gap_ms ~from ~until:r.p_dr.window_end
             (List.filter (fun x -> x.measured) (recs_of r)))
         mains)
  in
  let quorum_lat =
    List.concat_map
      (fun r ->
        match r.p_switch_t with
        | Some sw ->
            List.filter_map
              (fun x ->
                if x.measured && x.t0 >= sw then Some (float_of_int (x.t1 - x.t0))
                else None)
              (recs_of r)
        | None -> [])
      mains
  in
  [
    m "fail_frac" "ratio" (float_of_int failed /. float_of_int attempted);
    m "mop_over_p99_us" "us" (over 0 0.99);
    m "aop_over_p99_us" "us" (over 1 0.99);
    m "oop_over_p99_us" "us" (over 2 0.99);
    m "server_cpu_us_per_op" "us"
      (Sample.median
         (List.map
            (fun r -> List.assoc "server_cpu_us_per_op" (cluster_figures r))
            mains));
    m "outage_ms" "ms" outage_ms;
    m "quorum_p50_us" "us" (Sample.median quorum_lat);
    m "net.client.connect_ms" "ms"
      (Sample.median (List.concat_map (fun r -> r.p_connect_ms) mains));
    m "net.codec.encode_ns" "ns" encode_ns;
    m "net.codec.decode_ns" "ns" decode_ns;
    m "net.codec.crc32_ns_per_kib" "ns" crc_ns;
    m "net.transport.frames_per_op" "frames"
      (per_op (sum (fun (s : T.stats) -> s.T.sent) stats));
    m "net.transport.bytes_out_per_op" "B"
      (per_op (sum (fun l -> l.T.bytes_out) links));
    m "net.transport.reconnects" "count" (lsum (fun l -> l.T.reconnects));
    m "net.lanes.data_hwm" "frames" (lmax (fun l -> l.T.queue_hwm));
    m "net.lanes.ctrl_hwm" "frames" (lmax (fun l -> l.T.ctrl_hwm));
    m "net.lanes.shed" "count" (lsum (fun l -> l.T.lane_shed));
    m "net.admission.sheds" "count"
      (float_of_int (sum (fun r -> sum (fun o -> o.sheds) r.p_outs) mains));
    m "linearize.check_s" "s" (sumf (fun r -> r.p_check_s) mains);
    m "linearize.segments" "count"
      (float_of_int (sum (fun r -> r.p_check.segments) mains));
    m "linearize.unchecked" "count"
      (float_of_int (sum (fun r -> r.p_check.unchecked) mains));
    m "durable.wal.append_ns" "ns" wal_append_ns;
    m "durable.wal.bytes_per_mutation" "B" bytes_per_mutation;
    m "shard.directory.locate_ns" "ns" locate_ns;
    m "shard.hot_share" "ratio"
      (float_of_int hot_ops /. float_of_int (List.length measured));
    m "shard.hot.mop_over_p99_us" "us" (Sample.quantile (overheads hot_cls 0) 0.99);
    m "quorum.client_retries" "count"
      (float_of_int (sum (fun r -> sum (fun o -> o.retries) r.p_outs) mains));
    m "bench.cpu_steal_frac" "ratio"
      (sumf (fun r -> r.p_steal) all_mains /. float_of_int (List.length all_mains));
    m "bench.client_cpu_us_per_op" "us"
      (sumf (fun r -> r.p_client_cpu_s) mains *. 1e6 /. n_scored);
  ]

let traced_names =
  [
    ("runtime.transport.send_us.p50", "us");
    ("runtime.transport.send_us.p99", "us");
    ("runtime.mailbox.recv_wait_us.p50", "us");
    ("runtime.mailbox.depth.max", "count");
    ("runtime.replica.timer_late_us.p50", "us");
    ("runtime.replica.timer_late_us.p99", "us");
    ("runtime.replica.timer_late_us.p999", "us");
  ]
  @ List.concat_map
      (fun c ->
        [
          (Printf.sprintf "runtime.replica.hold_over_bound_us.%s.p50" c, "us");
          (Printf.sprintf "runtime.replica.hold_over_bound_us.%s.p99" c, "us");
        ])
      (Array.to_list class_names)
  @ List.map
      (fun c -> (Printf.sprintf "net.serve.client_port_us.%s.p50" c, "us"))
      (Array.to_list class_names)
  @ [
      ("trace.mop_over_p50_us", "us");
      ("trace.overhead.mop_p50_us", "us");
      ("quorum.detect_ms", "ms");
      ("quorum.mode_switches", "count");
    ]

(* Layers of the traced in-process run, attributed per op: each client is
   the only one on its replica and invokes one op at a time, so its ops and
   that replica's records pair up in order (matching on the op skips any
   record a retry left behind).  client port = client interval − replica
   interval; hold over bound = replica interval − class bound. *)
let traced_layers ~mains t =
  let tm = t.t_timing in
  let trecs = List.concat_map (fun o -> o.recs) t.t_outs in
  let tcls = class_ops ~kill_t:t.t_kill_t trecs in
  let pairs =
    List.concat_map
      (fun wid ->
        let mine =
          List.filter (fun r -> r.wid = wid) trecs
          |> List.sort (fun a b -> compare a.t0 b.t0)
        in
        let theirs =
          List.filter (fun (r : S.R.record) -> r.S.R.pid = wid) t.t_records
          |> List.sort (fun (a : S.R.record) b -> compare a.S.R.seq b.S.R.seq)
        in
        let rec zip acc mine theirs =
          match (mine, theirs) with
          | c :: ms, (s : S.R.record) :: ts ->
              if c.op = s.S.R.op then zip ((c, s) :: acc) ms ts
              else zip acc mine ts
          | _ -> List.rev acc
        in
        zip [] mine theirs)
      (List.init clients Fun.id)
    |> List.filter (fun (c, _) -> List.memq c tcls)
  in
  let replica_us (s : S.R.record) = s.S.R.response_us - s.S.R.invoke_us in
  let per_class cls f =
    List.filter_map (fun (c, s) -> if c.cls = cls then Some (f c s) else None) pairs
  in
  let hold cls q =
    Sample.quantile
      (per_class cls (fun _ s -> float_of_int (replica_us s - bound.(cls))))
      q
  in
  let port cls =
    Sample.median
      (per_class cls (fun c s -> float_of_int (c.t1 - c.t0 - replica_us s)))
  in
  let q s p = Sample.quantile (Sample.to_list s) p in
  let detect_ms =
    match (t.t_kill_t, List.find_opt snd t.t_modes) with
    | Some k, Some (at, _) -> ms_of_us (at - k)
    | _ -> 0.
  in
  let untraced = List.concat_map class_ops_of mains in
  let traced_over = Sample.median (overheads tcls 0) in
  Printf.printf
    "attribution: client port %.1f + replica hold over bound %.1f = %.1f us \
     against a traced MOP overhead of %.1f us\n"
    (port 0) (hold 0 0.5)
    (port 0 +. hold 0 0.5)
    traced_over;
  Printf.printf "  class  untraced over p50/p99   traced over p50/p99 (us)\n";
  Array.iteri
    (fun c name ->
      Printf.printf "  %-5s  %9.1f %9.1f   %9.1f %9.1f\n" name
        (Sample.median (overheads untraced c))
        (Sample.quantile (overheads untraced c) 0.99)
        (Sample.median (overheads tcls c))
        (Sample.quantile (overheads tcls c) 0.99))
    class_names;
  [
    q tm.Timing.send_us 0.5;
    q tm.Timing.send_us 0.99;
    q tm.Timing.recv_wait_us 0.5;
    float_of_int (Atomic.get tm.Timing.depth_max);
    q tm.Timing.timer_late_us 0.5;
    q tm.Timing.timer_late_us 0.99;
    q tm.Timing.timer_late_us 0.999;
  ]
  @ List.concat_map (fun c -> [ hold c 0.5; hold c 0.99 ]) [ 0; 1; 2 ]
  @ List.map port [ 0; 1; 2 ]
  @ [
      traced_over;
      Sample.median (latencies tcls 0) -. Sample.median (latencies untraced 0);
      detect_ms;
      float_of_int (List.length t.t_modes);
    ]
  |> List.map2 (fun (name, unit_) value -> m name unit_ value) traced_names

(* ---- main ---- *)

(* Measured clusters per run, each for a seventh of the window.  Latency
   varies between two cluster instances of one run (where a cluster's
   threads land on the two cores sticks for its lifetime), so a run
   reports the median over several instances rather than timing one. *)
let clusters = 7

(* A cluster whose window lost more than this share of the host's CPU to
   steal measures the hypervisor, not the program: in a neighbour's busy
   spell every latency grows by half or more.  A run scores the [scored]
   least stolen of its clusters, and measures up to [spare_clusters] more
   while fewer than [scored] are under the limit.  Every cluster run,
   scored or not, still counts for correctness. *)
let steal_limit = 0.05
let scored = 5
let spare_clusters = 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and exe = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--exe", Arg.Set_string exe, "PATH the timebounds binary");
      ("--work", Arg.Set_string work, "DIR scratch directory for the run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --exe PATH \
     --work DIR";
  let wl =
    match
      List.find_opt (fun (w : workload) -> w.name = !workload) workloads
    with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (have: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) || !exe = "" || !work = ""
  then begin
    prerr_endline "perfbench: bad --seconds, --trace, --exe or --work";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Whatever happens, end well inside 180 s. *)
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf 170.;
         Proc.kill_all ();
         prerr_endline "perfbench: watchdog expired";
         exit 3)
       ());
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* Per-process scratch; sweep what killed runs left behind. *)
  Array.iter
    (fun f ->
      match int_of_string_opt f with
      | Some pid when pid <> Unix.getpid () -> (
          match Unix.kill pid 0 with
          | () -> ()
          | exception Unix.Unix_error _ -> rm_rf (Filename.concat !work f))
      | _ -> ())
    (Sys.readdir !work);
  let work = Filename.concat !work (string_of_int (Unix.getpid ())) in
  rm_rf work;
  Unix.mkdir work 0o755;
  let interrupted _ =
    Proc.kill_all ();
    rm_rf work;
    prerr_endline "perfbench: interrupted";
    exit 130
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupted);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupted);
  let fatal what =
    Printf.eprintf "perfbench: %s\n%!" what;
    rm_rf work;
    exit 1
  in
  (* Net.Codec builds its CRC table lazily, and two domains forcing an
     OCaml 5 lazy at once get CamlinternalLazy.Undefined: force it here,
     before the two client domains encode their first frames. *)
  ignore (Net.Codec.crc32 "" ~pos:0 ~len:0);
  let gen = make_gen wl in
  let seed = !seed and window_us = !seconds * 1_000_000 in
  Printf.printf "workload %s, seed %d, %d s window, trace %d\n%!" wl.name seed
    !seconds !trace;
  let run_procs ~measure ~instance tag =
    let r =
      run_processes ~exe:!exe ~work ~wl ~gen ~seed ~instance
        ~window_us:(window_us / clusters) ~measure ~tag
    in
    (match r.p_failure with
    | Some f -> fatal (Printf.sprintf "%s run aborted: %s" tag f)
    | None -> ());
    if measure && wl.kill_after <> None && r.p_kill_t = None then
      fatal "the window ended before the failover kill; raise --seconds";
    Printf.printf "%s: %s; %d measured ops; host steal %.3f\n%!" tag
      (describe_check r.p_check)
      (List.length (List.filter (fun x -> x.measured) (recs_of r)))
      r.p_steal;
    if measure then
      Printf.printf "  %s\n%!"
        (String.concat "; "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s %.1f" k v)
              (cluster_figures r)));
    Option.iter
      (fun v -> Printf.eprintf "%s: full violation: %s\n%!" tag v)
      r.p_check.violation;
    r
  in
  let setup_runs =
    if !trace = 0 then
      List.init (setups - clusters) (fun i ->
          run_procs ~measure:false ~instance:(100 + i)
            (Printf.sprintf "setup%d" i))
    else []
  in
  let rec measure_clusters i acc =
    let clean = List.length (List.filter (fun r -> r.p_steal <= steal_limit) acc) in
    if i >= clusters && (clean >= scored || i >= clusters + spare_clusters)
    then List.rev acc
    else
      measure_clusters (i + 1)
        (run_procs ~measure:true ~instance:i (Printf.sprintf "cluster%d" i)
         :: acc)
  in
  let all_mains = measure_clusters 0 [] in
  let mains =
    List.filteri
      (fun i _ -> i < scored)
      (List.stable_sort (fun a b -> Float.compare a.p_steal b.p_steal) all_mains)
  in
  Printf.printf "scored the %d least stolen of %d clusters (steal limit %.2f)\n%!"
    scored (List.length all_mains) steal_limit;
  let runs = setup_runs @ all_mains in
  let attempted = sum (fun r -> sum (fun o -> o.attempted) r.p_outs) runs in
  let failed = sum (fun r -> sum (fun o -> o.failed) r.p_outs) runs in
  let correct = ref (failed = 0 && List.for_all (fun r -> verdict_ok r.p_check) runs) in
  let metrics =
    if !trace = 0 then begin
      let setup_samples =
        List.map (fun r -> float_of_int (r.p_dr.setup_end - r.p_spawn_t) /. 1e6) runs
      in
      Printf.printf "setup samples (s): %s\n"
        (String.concat " " (List.map (Printf.sprintf "%.4f") setup_samples));
      end_to_end ~setup_samples mains
    end
    else
      let traced =
        match wl.stack with
        | Sharded _ ->
            print_endline
              "traced run skipped: Shard.Host takes no transport wrapper, so \
               this workload reports client-side and Stats_req layers only \
               (runtime.*, net.serve.*, trace.* and quorum.detect read 0)";
            List.map (fun (name, unit_) -> m name unit_ 0.) traced_names
        | Unsharded ->
            let t = run_traced ~wl ~gen ~seed ~instance:200
                ~window_us:(window_us / 2) in
            (match t.t_failure with
            | Some f -> fatal ("traced run aborted: " ^ f)
            | None -> ());
            if wl.kill_after <> None && t.t_kill_t = None then
              fatal "the traced window ended before the failover kill";
            Printf.printf "traced: %s\n%!" (describe_check t.t_check);
            if not (verdict_ok t.t_check) then correct := false;
            traced_layers ~mains t
      in
      process_layers ~wl ~gen ~work ~attempted ~failed ~all_mains mains @ traced
  in
  rm_rf work;
  print_result ~correct:!correct ~attempted ~failed metrics;
  if not !correct then exit 1
