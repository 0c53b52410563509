(** Multi-process sharded-cluster orchestrator and zipfian load generator —
    the bodies of [timebounds shards cluster] (fork [n] host processes,
    drive, verify, tear down) and [timebounds shards loadgen] (drive an
    already-running cluster).

    The namespace is the sharded KV map: a zipfian rank sampler
    ({!Runtime.Workloads.Zipf}) draws hot keys, the {!Directory} resolves
    each key to its shard and the shard's home replica, and the worker
    invokes there with the shard id riding the codec-v4 [Invoke] frame.
    Workers keep one lazy connection per replica, so an operation for a
    shard homed elsewhere reuses the existing socket rather than paying a
    connect — the client-side realisation of "no hot central hop".

    Measurement is keyed by {e shard} × class: a zipfian mix makes some
    shards much hotter than others, and an aggregate histogram would
    average exactly the skew this subsystem exists to expose.  The same
    split carries into verification — each shard's history is checked
    independently with the segmented Wing–Gong checker (linearizability
    composes, so per-shard PASS is namespace PASS), sharing the global
    quiescent cuts, which are quiescent for every shard at once. *)

module T = Runtime.Transport_intf
module W = Net.Wire.Kv_wired
module NC = Net.Cluster.Make (W)
module Cl = NC.Cl
module Gen = NC.Gen

type report = {
  params : Core.Params.t;  (** effective (slack included in [d], [u]) *)
  cfg_d : int;
  cfg_u : int;
  slack : int;
  shards : int;
  keys : int;
  theta : float;
  vnodes : int;
  ring_seed : int;
  mix : int * int * int;
  workers : int;
  seed : int;
  ops : int;
  completed : int;
  failed : int;
  wall_us : int;
  throughput : float;
  classes : Runtime.Loadgen.class_report list;  (** aggregate over shards *)
  per_shard : Runtime.Loadgen.shard_report list;
      (** one per shard that saw traffic, hottest first *)
  replica_stats : (int * T.stats) list;
  offsets : int array;
  cuts : int list;
  aborted : string option;
  verdict : Runtime.Loadgen.verdict;
      (** namespace verdict: conjunction of the per-shard checks *)
}

let ok r =
  r.failed = 0 && r.aborted = None
  && match r.verdict with Runtime.Loadgen.Linearizable _ -> true | _ -> false

let pp_report fmt r =
  let m, a, o = r.mix in
  Format.fprintf fmt
    "@[<v>shards %s: %a (net d=%d u=%d, slack=%d) shards=%d keys=%d \
     theta=%.2f vnodes=%d ring-seed=%d@,\
     mix=%d:%d:%d workers=%d seed=%d@,\
     %d/%d ops in %.3f s (%.0f ops/s)%s@,"
    W.L.label Core.Params.pp r.params r.cfg_d r.cfg_u r.slack r.shards r.keys
    r.theta r.vnodes r.ring_seed m a o r.workers r.seed r.completed r.ops
    (float_of_int r.wall_us /. 1e6)
    r.throughput
    (if r.failed > 0 then Printf.sprintf "; %d FAILED" r.failed else "");
  (match r.aborted with
  | Some why -> Format.fprintf fmt "aborted: %s@," why
  | None -> ());
  List.iter
    (fun (c : Runtime.Loadgen.class_report) ->
      Format.fprintf fmt "  %-3s %a  (target %s %dµs)@,"
        c.Runtime.Loadgen.class_name Runtime.Histogram.pp
        c.Runtime.Loadgen.hist
        (if String.equal c.Runtime.Loadgen.class_name "OOP" then "≤" else "≈")
        c.Runtime.Loadgen.target_us;
      match c.Runtime.Loadgen.faulty with
      | None -> ()
      | Some h ->
          Format.fprintf fmt "      in fault windows: %a@," Runtime.Histogram.pp
            h)
    r.classes;
  List.iter
    (fun s -> Format.fprintf fmt "  %a@," Runtime.Loadgen.pp_shard_report s)
    r.per_shard;
  List.iter
    (fun (pid, stats) ->
      Format.fprintf fmt "  replica %d: %a@," pid T.pp_stats stats)
    r.replica_stats;
  Format.fprintf fmt "namespace linearizability: %a@]"
    Runtime.Loadgen.pp_verdict r.verdict

(* ---- drawing sharded operations ---- *)

(* The key's popularity rank IS the key: Zipf hands back rank r with
   probability ∝ 1/(r+1)^θ, and the ring hashes ranks uniformly, so hot
   ranks pile onto whichever shards their hashes pick — real, measurable
   hot-shard skew from a one-line sampler. *)
let draw_op rng zipf dir (m, a, _o) total =
  let key = Runtime.Workloads.Zipf.sample zipf rng in
  let shard = Directory.shard_of dir ~key in
  let op =
    let toss = Prelude.Rng.int rng total in
    if toss < m then
      if Prelude.Rng.int rng 10 < 8 then
        Spec.Kv_map.Put (key, Prelude.Rng.int rng 1000)
      else Spec.Kv_map.Del key
    else if toss < m + a then Spec.Kv_map.Get key
    else Spec.Kv_map.Swap (key, Prelude.Rng.int rng 1000)
  in
  (shard, op)

let classify op =
  match W.L.D.classify op with
  | Spec.Data_type.Pure_mutator -> 0
  | Spec.Data_type.Pure_accessor -> 1
  | Spec.Data_type.Other -> 2

(* ---- one worker's share of a round ---- *)

type worker_out = {
  w_entries : (int * Gen.Lin.entry) list;  (** (shard, entry), reverse order *)
  w_hists : (int, Runtime.Histogram.t array) Hashtbl.t;
      (** shard → 6 histograms (3 classes × clean/faulty) *)
  w_failed : int;
  w_error : string option;
}

let worker_round ~host ~ports ~dir ~zipf ~origin_us ~abort ?(resilient = false)
    ?(traced = false) ?(windows = []) ?mint ?timeout_us
    ?(deadline_budget_us = 0) rng ~mix ~total ~quota ~wid =
  let hists : (int, Runtime.Histogram.t array) Hashtbl.t = Hashtbl.create 16 in
  let hists_for shard =
    match Hashtbl.find_opt hists shard with
    | Some hs -> hs
    | None ->
        let hs = Array.init 6 (fun _ -> Runtime.Histogram.create ()) in
        Hashtbl.replace hists shard hs;
        hs
  in
  let n = Array.length ports in
  (* One lazy connection per replica: shard routing picks the target, the
     socket is reused across every shard homed there. *)
  let conns = Array.make n None in
  let attempts = if resilient then 40 else 3 in
  let connect pid =
    Cl.connect ~host ~port:ports.(pid) ~attempts ~retry_delay_us:50_000 ()
  in
  let get_conn pid =
    match conns.(pid) with
    | Some c -> Ok c
    | None -> (
        match connect pid with
        | Ok c ->
            conns.(pid) <- Some c;
            Ok c
        | Error e -> Error e)
  in
  let drop_conn pid =
    (match conns.(pid) with Some c -> Cl.close c | None -> ());
    conns.(pid) <- None
  in
  let in_windows t = List.exists (fun (f, u) -> f <= t && t < u) windows in
  let entries = ref [] in
  let failed = ref 0 in
  let error = ref None in
  let note_error e = match !error with None -> error := Some e | Some _ -> () in
  let gave_up = ref false in
  let i = ref 0 in
  while !i < quota && (not !gave_up) && not (Atomic.get abort) do
    incr i;
    let shard, op = draw_op rng zipf dir mix total in
    let home = Directory.home_of dir ~shard in
    let slot = classify op in
    (* The trace id's origin bits carry the shard, so per-shard bound
       attribution falls out of the merged trace files for free. *)
    let trace = if traced then Obs.Trace_id.fresh ~origin:shard else 0 in
    let op_id = match mint with None -> 0 | Some m -> m () in
    let t0 = Prelude.Mclock.now_us () in
    (* Minted once per operation, re-sent unchanged on every retry. *)
    let deadline =
      if deadline_budget_us > 0 then t0 + deadline_budget_us else 0
    in
    let shed e = String.length e >= 4 && String.sub e 0 4 = "shed" in
    let rec attempt pid backoff tries =
      match get_conn pid with
      | Error e ->
          if op_id <> 0 && tries < 25 && not (Atomic.get abort) then begin
            Prelude.Mclock.sleep_us
              (backoff + Prelude.Rng.int rng (1 + (backoff / 2)));
            attempt pid (min (2 * backoff) 400_000) (tries + 1)
          end
          else Error e
      | Ok c -> (
          match Cl.invoke ~trace ~op_id ~shard ~deadline ?timeout_us c op with
          | Ok r -> Ok r
          | Error e
            when op_id <> 0 && Cl.retryable e && tries < 25
                 && ((not (shed e))
                    || deadline = 0
                    || Prelude.Mclock.now_us () < deadline)
                 && not (Atomic.get abort) ->
              drop_conn pid;
              Prelude.Mclock.sleep_us
                (backoff + Prelude.Rng.int rng (1 + (backoff / 2)));
              attempt pid (min (2 * backoff) 400_000) (tries + 1)
          | Error e -> Error e)
    in
    match attempt home 20_000 0 with
    | Ok result ->
        let t1 = Prelude.Mclock.now_us () in
        let hs = hists_for shard in
        let slot = if in_windows (t0 - origin_us) then slot + 3 else slot in
        Runtime.Histogram.add hs.(slot) (t1 - t0);
        entries :=
          ( shard,
            {
              Gen.Lin.pid = wid;
              op;
              result;
              invoke = t0 - origin_us;
              response = t1 - origin_us;
            } )
          :: !entries
    | Error e ->
        incr failed;
        note_error e;
        if resilient then drop_conn home
        else begin
          gave_up := true;
          Atomic.set abort true
        end
  done;
  Array.iteri (fun pid _ -> drop_conn pid) conns;
  { w_entries = !entries; w_hists = hists; w_failed = !failed; w_error = !error }

(* ---- the drive loop, shared by cluster and loadgen modes ---- *)

type drive_out = {
  d_entries : (int * Gen.Lin.entry) list;
  d_matrix : (int, Runtime.Histogram.t array) Hashtbl.t;  (** shard → 6 *)
  d_cuts : int list;
  d_failed : int;
  d_first_error : string option;
  d_wall_us : int;
}

let drive_rounds ~host ~ports ~dir ~zipf ~epoch ~abort ~resilient ~traced
    ~windows ~mint ~timeout_us ?(deadline_budget_us = 0) ~workers ~round ~mix
    ~total ~ops rng_workers =
  let t0 = Prelude.Mclock.now_us () in
  let matrix : (int, Runtime.Histogram.t array) Hashtbl.t = Hashtbl.create 64 in
  let entries = ref [] in
  let cuts = ref [] in
  let failed = ref 0 in
  let first_error = ref None in
  let rng_workers = ref rng_workers in
  let remaining = ref ops in
  while !remaining > 0 && not (Atomic.get abort) do
    let quota = min round !remaining in
    remaining := !remaining - quota;
    let spawned =
      List.init workers (fun wid ->
          let mine, rest = Prelude.Rng.split !rng_workers in
          rng_workers := rest;
          let share =
            (quota / workers) + if wid < quota mod workers then 1 else 0
          in
          Domain.spawn (fun () ->
              worker_round ~host ~ports ~dir ~zipf ~origin_us:epoch ~abort
                ~resilient ~traced ~windows ?mint ?timeout_us
                ~deadline_budget_us mine ~mix ~total ~quota:share ~wid))
    in
    List.iter
      (fun dom ->
        let out = Domain.join dom in
        entries := List.rev_append out.w_entries !entries;
        failed := !failed + out.w_failed;
        (match (out.w_error, !first_error) with
        | Some e, None -> first_error := Some e
        | _ -> ());
        Hashtbl.iter
          (fun shard hs ->
            let into =
              match Hashtbl.find_opt matrix shard with
              | Some m -> m
              | None ->
                  let m =
                    Array.init 6 (fun _ -> Runtime.Histogram.create ())
                  in
                  Hashtbl.replace matrix shard m;
                  m
            in
            Array.iteri
              (fun i h -> Runtime.Histogram.merge_into ~into:into.(i) h)
              hs)
          out.w_hists)
      spawned;
    (* Every in-flight operation has responded: one cut, quiescent for
       every shard at once — each per-shard checker segments at it. *)
    cuts := Prelude.Mclock.now_us () - epoch :: !cuts
  done;
  {
    d_entries = !entries;
    d_matrix = matrix;
    d_cuts = !cuts;
    d_failed = !failed;
    d_first_error = !first_error;
    d_wall_us = Prelude.Mclock.now_us () - t0;
  }

(* ---- per-shard verification and report assembly ---- *)

let verdict_and_shards ~shards ~initials ~params ~windowed ~matrix ~cuts
    ~entries ~expected ~failed ~first_error ~aborted =
  let by_shard = Array.make shards [] in
  List.iter
    (fun (s, e) ->
      if s >= 0 && s < shards then by_shard.(s) <- e :: by_shard.(s))
    entries;
  let cuts = List.sort compare cuts in
  let shard_checks =
    Array.mapi
      (fun k rev ->
        match rev with
        | [] -> None
        | _ ->
            let sorted =
              List.sort
                (fun (a : Gen.Lin.entry) (b : Gen.Lin.entry) ->
                  compare (a.Gen.Lin.invoke, a.Gen.Lin.pid)
                    (b.Gen.Lin.invoke, b.Gen.Lin.pid))
                rev
            in
            Some (Gen.check_history ?initial:initials.(k) sorted cuts))
      by_shard
  in
  let completed = List.length entries in
  let namespace =
    if failed > 0 then
      Runtime.Loadgen.Unchecked
        (Printf.sprintf "%d invocation%s failed (%s)" failed
           (if failed = 1 then "" else "s")
           (Option.value first_error ~default:"unknown error"))
    else if aborted <> None then
      Runtime.Loadgen.Unchecked (Option.value aborted ~default:"run aborted")
    else if completed <> expected then
      Runtime.Loadgen.Unchecked
        (Printf.sprintf "expected %d completed ops, recorded %d" expected
           completed)
    else
      (* Linearizability composes across independent objects: the
         namespace passes iff every shard's own history does. *)
      Array.to_seq shard_checks
      |> Seq.fold_lefti
           (fun acc k check ->
             match (acc, check) with
             | (Runtime.Loadgen.Violation _ | Runtime.Loadgen.Unchecked _), _
               ->
                 acc
             | _, None -> acc
             | Runtime.Loadgen.Linearizable total, Some v -> (
                 match v with
                 | Runtime.Loadgen.Linearizable segs ->
                     Runtime.Loadgen.Linearizable (total + segs)
                 | Runtime.Loadgen.Violation { segment; reason } ->
                     Runtime.Loadgen.Violation
                       {
                         segment;
                         reason = Printf.sprintf "shard %d: %s" k reason;
                       }
                 | Runtime.Loadgen.Unchecked why ->
                     Runtime.Loadgen.Unchecked
                       (Printf.sprintf "shard %d: %s" k why)))
           (Runtime.Loadgen.Linearizable 0)
  in
  let per_shard =
    List.init shards Fun.id
    |> List.filter_map (fun k ->
           match Hashtbl.find_opt matrix k with
           | None -> None
           | Some hs ->
               Some
                 {
                   Runtime.Loadgen.shard = k;
                   shard_ops = List.length by_shard.(k);
                   shard_classes =
                     Runtime.Loadgen.classes_of ~params ~windowed hs;
                   shard_verdict =
                     (match shard_checks.(k) with
                     | Some v -> v
                     | None -> Runtime.Loadgen.Linearizable 0);
                 })
    |> List.sort (fun a b ->
           compare b.Runtime.Loadgen.shard_ops a.Runtime.Loadgen.shard_ops)
  in
  let aggregate =
    let merged = Array.init 6 (fun _ -> Runtime.Histogram.create ()) in
    Hashtbl.iter
      (fun _ hs ->
        Array.iteri
          (fun i h -> Runtime.Histogram.merge_into ~into:merged.(i) h)
          hs)
      matrix;
    Runtime.Loadgen.classes_of ~params ~windowed merged
  in
  (namespace, per_shard, aggregate)

(* ---- spawning [timebounds shards serve] children ---- *)

(* The children never see the ring: key→shard→replica resolution is the
   {e clients'} pure computation, so a host only needs to know how many
   shard instances to run. *)
let serve_argv ~exe ~peers ~pid ~shards =
  Net.Cluster.replica_argv
    ~cmd:[ "shards"; "serve"; "--shards"; string_of_int shards ]
    ~label:W.L.label ~exe ~peers ~pid ~fallback:None ~sync:None

(* ---- loadgen mode: drive an already-running sharded cluster ---- *)

let drive ~n ~shards ~keys ~theta ~vnodes ~ring_seed ~d ~u ?eps ?(x = 0)
    ?(slack = 5000) ?workers ?(round = 24) ?(mix = (50, 40, 10))
    ?(host = "127.0.0.1") ?(base_port = 7800) ?(log = fun _ -> ()) ?abort
    ?(traced = false) ~ops ~seed () =
  ignore log;
  if n < 1 then invalid_arg "Shard_cluster.drive: n must be >= 1";
  if round < 1 || round > 62 then
    invalid_arg "Shard_cluster.drive: round must be in [1, 62]";
  let m, a, o = mix in
  let total = m + a + o in
  if m < 0 || a < 0 || o < 0 || total = 0 then
    invalid_arg "Shard_cluster.drive: mix weights must be non-negative";
  let eps =
    match eps with Some e -> e | None -> Core.Params.optimal_eps ~n ~u
  in
  let workers = match workers with Some w -> w | None -> n in
  let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x () in
  let dir = Directory.make ~vnodes ~seed:ring_seed ~shards ~n () in
  let zipf = Runtime.Workloads.Zipf.make ~n:keys ~theta in
  let rng = Prelude.Rng.make seed in
  let _rng_offsets, rng_workers = Prelude.Rng.split rng in
  let abort = match abort with Some a -> a | None -> Atomic.make false in
  let epoch = Prelude.Mclock.now_us () in
  let ports = Array.init n (fun i -> base_port + i) in
  let out =
    drive_rounds ~host ~ports ~dir ~zipf ~epoch ~abort ~resilient:false
      ~traced ~windows:[] ~mint:None ~timeout_us:None ~workers ~round ~mix
      ~total ~ops rng_workers
  in
  let initials = Array.make shards None in
  let aborted = if Atomic.get abort then Some "aborted" else None in
  let verdict, per_shard, classes =
    verdict_and_shards ~shards ~initials ~params ~windowed:false
      ~matrix:out.d_matrix ~cuts:out.d_cuts ~entries:out.d_entries
      ~expected:ops ~failed:out.d_failed ~first_error:out.d_first_error
      ~aborted
  in
  {
    params;
    cfg_d = d;
    cfg_u = u;
    slack;
    shards;
    keys;
    theta;
    vnodes;
    ring_seed;
    mix;
    workers;
    seed;
    ops;
    completed = List.length out.d_entries;
    failed = out.d_failed;
    wall_us = out.d_wall_us;
    throughput =
      (if out.d_wall_us = 0 then 0.
       else
         float_of_int (List.length out.d_entries)
         /. (float_of_int out.d_wall_us /. 1e6));
    classes;
    per_shard;
    replica_stats = [];
    offsets = [||];
    cuts = List.sort compare out.d_cuts;
    aborted;
    verdict;
  }

(* ---- cluster mode: fork, drive, verify, tear down ---- *)

let run ~n ~shards ~keys ~theta ~vnodes ~ring_seed ~d ~u ?eps ?(x = 0)
    ?(slack = 5000) ?workers ?(round = 24) ?(mix = (50, 40, 10))
    ?(host = "127.0.0.1") ?(base_port = 7800) ?(exe = Sys.executable_name)
    ?(log = fun _ -> ()) ?abort ?plan ?trace_dir ?durable_dir
    ?(fsync = "interval") ?(snapshot_every = 1024) ~ops ~seed () =
  if n < 1 then invalid_arg "Shard_cluster.run: n must be >= 1";
  if shards < 1 then invalid_arg "Shard_cluster.run: shards must be >= 1";
  if keys < 1 then invalid_arg "Shard_cluster.run: keys must be >= 1";
  if round < 1 || round > 62 then
    invalid_arg "Shard_cluster.run: round must be in [1, 62]";
  let m, a, o = mix in
  let total = m + a + o in
  if m < 0 || a < 0 || o < 0 || total = 0 then
    invalid_arg "Shard_cluster.run: mix weights must be non-negative";
  let eps =
    match eps with Some e -> e | None -> Core.Params.optimal_eps ~n ~u
  in
  let workers = match workers with Some w -> w | None -> n in
  let params = Core.Params.make ~n ~d:(d + slack) ~u:(u + slack) ~eps ~x () in
  let dir = Directory.make ~vnodes ~seed:ring_seed ~shards ~n () in
  let zipf = Runtime.Workloads.Zipf.make ~n:keys ~theta in
  let rng = Prelude.Rng.make seed in
  let rng_offsets, rng_workers = Prelude.Rng.split rng in
  let offsets =
    Array.init n (fun i ->
        if i = 0 || eps = 0 then 0
        else Prelude.Rng.int_in rng_offsets ~lo:0 ~hi:eps)
  in
  let plan =
    match plan with
    | Some p when not (Fault.Fault_plan.is_empty p) -> Some p
    | _ -> None
  in
  let chaos =
    Option.map
      (fun p -> (Fault.Fault_plan.spec_text p, Fault.Fault_plan.seed p))
      plan
  in
  let fault_windows =
    match plan with
    | None -> []
    | Some p -> List.map (fun (_, f, u) -> (f, u)) (Fault.Fault_plan.windows p)
  in
  (match plan with
  | None -> ()
  | Some p ->
      Array.iteri
        (fun i k -> offsets.(i) <- offsets.(i) + k)
        (Fault.Fault_plan.skews p ~n));
  let resilient = plan <> None in
  let ports = Array.init n (fun i -> base_port + i) in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let abort = match abort with Some a -> a | None -> Atomic.make false in
  let epoch = Prelude.Mclock.now_us () in
  (match trace_dir with
  | Some tdir -> (
      try Unix.mkdir tdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | None -> ());
  let traced = trace_dir <> None in
  let op_ids = Atomic.make (((epoch land ((1 lsl 38) - 1)) lsl 24) lor 1) in
  (* Chaos runs are idempotent like durable ones: a [flood]'s overload
     sheds are survivable only if the client replays (same op id, same
     deadline) once the pressure clears. *)
  let idempotent = durable_dir <> None || plan <> None in
  let mint =
    if idempotent then Some (fun () -> Atomic.fetch_and_add op_ids 1) else None
  in
  let timeout_us =
    if idempotent then Some ((2 * (d + slack + eps)) + 2_000_000) else None
  in
  let deadline_budget_us =
    if idempotent then (2 * (d + slack + eps)) + 4_000_000 else 0
  in
  (* Shard k's checker starts from shard k's recovered state. *)
  let initials =
    Array.init shards (fun shard -> NC.recovered_initial durable_dir ~n ~shard)
  in
  let children =
    Array.init n (fun i ->
        Net.Cluster.spawn ~log ~port:ports.(i) ~pid:i
          (serve_argv ~exe ~peers:(NC.peers_of ~host ~ports) ~pid:i ~shards ~d
             ~u ~eps ~x ~slack ~offset:offsets.(i) ~epoch ~chaos
             ~trace:(Net.Cluster.trace_path trace_dir i)
             ~durable:(Net.Cluster.durable_path durable_dir i)
             ~fsync ~snapshot_every))
  in
  let mon = Net.Cluster.start_monitor children ~abort ~log in
  let admin = NC.connect_admin ~host ~abort ~log children in
  let out =
    drive_rounds ~host ~ports ~dir ~zipf ~epoch ~abort ~resilient ~traced
      ~windows:fault_windows ~mint ~timeout_us ~deadline_budget_us ~workers
      ~round ~mix ~total ~ops rng_workers
  in
  let replica_stats = NC.collect_stats admin in
  Net.Cluster.teardown mon children ~log;
  let aborted = Net.Cluster.abort_reason mon ~first_error:out.d_first_error in
  let verdict, per_shard, classes =
    verdict_and_shards ~shards ~initials ~params
      ~windowed:(fault_windows <> []) ~matrix:out.d_matrix ~cuts:out.d_cuts
      ~entries:out.d_entries ~expected:ops ~failed:out.d_failed
      ~first_error:out.d_first_error ~aborted
  in
  {
    params;
    cfg_d = d;
    cfg_u = u;
    slack;
    shards;
    keys;
    theta;
    vnodes;
    ring_seed;
    mix;
    workers;
    seed;
    ops;
    completed = List.length out.d_entries;
    failed = out.d_failed;
    wall_us = out.d_wall_us;
    throughput =
      (if out.d_wall_us = 0 then 0.
       else
         float_of_int (List.length out.d_entries)
         /. (float_of_int out.d_wall_us /. 1e6));
    classes;
    per_shard;
    replica_stats;
    offsets;
    cuts = List.sort compare out.d_cuts;
    aborted;
    verdict;
  }
