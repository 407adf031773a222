(* Streaming latency histogram with bounded relative error.

   HDR-style geometric buckets: bucket i covers [ratio^i, ratio^(i+1))
   with ratio = 2^(1/8) (≈ 9% width), so a percentile estimate is within
   one bucket — at most a factor [ratio] — of the exact order statistic,
   at O(1) memory per distinct magnitude regardless of sample count.
   Exact min/max/sum/count are tracked on the side; non-positive samples
   (zero-duration spans are legal in virtual time) get a dedicated
   bucket. *)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable zeros : int; (* samples <= 0 *)
  buckets : (int, int ref) Hashtbl.t;
}

(* 2^(1/8): the bound on estimate/exact for any percentile. *)
let ratio = Float.pow 2.0 0.125

let log_ratio = Float.log ratio

let create () =
  {
    count = 0;
    sum = 0.;
    vmin = Float.infinity;
    vmax = Float.neg_infinity;
    zeros = 0;
    buckets = Hashtbl.create 32;
  }

let bucket_of v = int_of_float (Float.floor ((Float.log v /. log_ratio) +. 1e-9))

let add t v =
  let v = if Float.is_nan v then 0. else v in
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.vmin then t.vmin <- v;
  if v > t.vmax then t.vmax <- v;
  if v <= 0. then t.zeros <- t.zeros + 1
  else
    let idx = bucket_of v in
    match Hashtbl.find_opt t.buckets idx with
    | Some r -> incr r
    | None -> Hashtbl.add t.buckets idx (ref 1)

(* Fold [src] into [into].  Every tracked quantity is a sum (or a
   min/max), so merging is insensitive to the order the samples were
   originally observed in — the property the domain-parallel sweep
   merge relies on.  Buckets are visited in sorted index order so the
   destination's table is grown deterministically. *)
let merge ~into src =
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.count > 0 then begin
    if src.vmin < into.vmin then into.vmin <- src.vmin;
    if src.vmax > into.vmax then into.vmax <- src.vmax
  end;
  into.zeros <- into.zeros + src.zeros;
  Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) src.buckets []
  |> List.sort compare
  |> List.iter (fun (idx, c) ->
         match Hashtbl.find_opt into.buckets idx with
         | Some r -> r := !r + c
         | None -> Hashtbl.add into.buckets idx (ref c))

let count t = t.count

let sum t = t.sum

let min t = if t.count = 0 then 0. else t.vmin

let max t = if t.count = 0 then 0. else t.vmax

(* Nearest-rank percentile over the buckets: the estimate is the upper
   bound of the bucket holding the rank-th sample, clamped to the exact
   [min, max] envelope, so estimate ∈ [exact, exact * ratio]. *)
let percentile t q =
  if t.count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count))) in
    let rank = Stdlib.min rank t.count in
    if rank <= t.zeros then Stdlib.min 0. t.vmax |> Float.max t.vmin
    else begin
      let sorted =
        Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) t.buckets []
        |> List.sort compare
      in
      let estimate = ref t.vmax in
      let cumulative = ref t.zeros in
      (try
         List.iter
           (fun (idx, c) ->
             cumulative := !cumulative + c;
             if !cumulative >= rank then begin
               estimate := Float.pow ratio (float_of_int (idx + 1));
               raise Exit
             end)
           sorted
       with Exit -> ());
      Float.min (Float.max !estimate t.vmin) t.vmax
    end
  end

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary (t : t) =
  if t.count = 0 then
    { count = 0; sum = 0.; min = 0.; max = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
  else
    {
      count = t.count;
      sum = t.sum;
      min = t.vmin;
      max = t.vmax;
      p50 = percentile t 0.5;
      p90 = percentile t 0.9;
      p99 = percentile t 0.99;
    }
