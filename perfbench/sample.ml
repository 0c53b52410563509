(* Raw samples and the order statistics the report takes from them.

   Every percentile is computed from the exact samples, never from
   [Runtime.Histogram]: its log buckets are ~6% wide, 256 µs at the 7.3 ms
   accessor bound, which is coarser than the overhead being measured. *)

(* A growable buffer guarded by a mutex: the timing wrapper appends from
   replica domains and transport threads at once. *)
type t = { lock : Mutex.t; mutable data : float array; mutable len : int }

let create () = { lock = Mutex.create (); data = Array.make 1024 0.; len = 0 }

let add t v =
  Mutex.lock t.lock;
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1;
  Mutex.unlock t.lock

let to_list t =
  Mutex.lock t.lock;
  let l = Array.to_list (Array.sub t.data 0 t.len) in
  Mutex.unlock t.lock;
  l

(* Linear interpolation between closest ranks (numpy's default); 0 for an
   empty sample, which the report only meets for layers a workload does
   not exercise. *)
let quantile values q =
  match values with
  | [] -> 0.
  | _ ->
      let a = Array.of_list values in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median values = quantile values 0.5
