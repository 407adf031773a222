(* Binary min-heap keyed by (time, sequence number).

   The sequence number makes the ordering total and deterministic: two
   events scheduled for the same virtual time fire in insertion order.

   The heap is unboxed: entry [i] is slot [i] of three parallel arrays,
   its time in a flat [Float.Array], its seq and payload beside it.  A
   push or pop allocates nothing but an occasional resize, and a sift
   moves a hole down or up the tree, writing the entry it carries once,
   where the hole stops.

   Every payload slot at or past [size] holds [filler], never a payload
   the heap no longer holds: an idle heap must not keep already-run
   payloads (event closures) alive. *)

type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable size : int;
  filler : 'a; (* fills every vacant payload slot *)
}

let create ~filler () =
  { times = Float.Array.create 0; seqs = [||]; payloads = [||]; size = 0; filler }

let is_empty h = h.size = 0

let size h = h.size

let[@inline] less (t1 : float) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

(* Does slot [i] sort before slot [j]? *)
let[@inline] before h i j =
  less (Float.Array.get h.times i) h.seqs.(i) (Float.Array.get h.times j) h.seqs.(j)

let[@inline] move h ~src ~dst =
  Float.Array.set h.times dst (Float.Array.get h.times src);
  h.seqs.(dst) <- h.seqs.(src);
  h.payloads.(dst) <- h.payloads.(src)

let grow h =
  let capacity = Array.length h.seqs in
  if h.size = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let times = Float.Array.create capacity' in
    Float.Array.blit h.times 0 times 0 h.size;
    let seqs = Array.make capacity' 0 in
    Array.blit h.seqs 0 seqs 0 h.size;
    let payloads = Array.make capacity' h.filler in
    Array.blit h.payloads 0 payloads 0 h.size;
    h.times <- times;
    h.seqs <- seqs;
    h.payloads <- payloads
  end

(* Move the hole [i] up past every parent that sorts after the entry,
   then put the entry there. *)
let rec sift_up h i ~time ~seq payload =
  let parent = (i - 1) / 2 in
  if i > 0 && less time seq (Float.Array.get h.times parent) h.seqs.(parent)
  then begin
    move h ~src:parent ~dst:i;
    sift_up h parent ~time ~seq payload
  end
  else begin
    Float.Array.set h.times i time;
    h.seqs.(i) <- seq;
    h.payloads.(i) <- payload
  end

(* Move the hole [i] down past every child that sorts before the entry
   in slot [src] (a slot past [size]), then move that entry there. *)
let rec sift_down h i ~src =
  let left = (2 * i) + 1 in
  let child = if left + 1 < h.size && before h (left + 1) left then left + 1 else left in
  if left < h.size && before h child src then begin
    move h ~src:child ~dst:i;
    sift_down h child ~src
  end
  else move h ~src ~dst:i

let push h ~time ~seq payload =
  grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) ~time ~seq payload

let min_time h =
  if h.size = 0 then invalid_arg "Heap.min_time: empty heap";
  Float.Array.get h.times 0

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  let top = h.payloads.(0) in
  h.size <- h.size - 1;
  let last = h.size in
  if last > 0 then sift_down h 0 ~src:last;
  h.payloads.(last) <- h.filler;
  top

let clear h =
  Array.fill h.payloads 0 h.size h.filler;
  h.size <- 0
