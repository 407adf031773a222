(* Order statistics and measurement helpers shared by the workloads. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile [q] (in (0, 1]) of the sorted array [a],
   reported only when at least 10 samples rank above it: a tail
   percentile resting on fewer samples would be one outlier's value. *)
let nearest_rank q a =
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  if n = 0 || n - rank < 10 then None else Some a.(rank - 1)

let percentile q samples = nearest_rank q (sorted samples)

let median samples =
  let a = sorted samples in
  match Array.length a with
  | 0 -> nan
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [ratio a b] with an absent denominator reading as "no such work". *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The event heap's high-water mark of one finished simulation. *)
let heap_peak obs =
  match List.assoc_opt "sim.heap.peak_depth" (Rdma_obs.Obs.gauges obs) with
  | Some d -> int_of_float d
  | None -> 0
