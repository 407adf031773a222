(* Binary min-heap keyed by (time, sequence number).

   The sequence number makes the ordering total and deterministic: two
   events scheduled for the same virtual time fire in insertion order.

   Every slot at or past [size] holds the [blank] entry, never a copy of
   an entry the heap no longer holds: an idle heap must not keep
   already-run payloads (event closures) alive. *)

type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable max_size : int; (* high watermark, for the heap-depth gauge *)
  blank : 'a entry; (* fills every vacant slot *)
}

let create ~filler () =
  let blank = { time = 0.; seq = 0; payload = filler } in
  { data = [||]; size = 0; max_size = 0; blank }

let is_empty h = h.size = 0

let size h = h.size

let max_size h = h.max_size

let lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow h =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let capacity' = max 16 (2 * capacity) in
    let data' = Array.make capacity' h.blank in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt h.data.(i) h.data.(parent) then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && lt h.data.(left) h.data.(!smallest) then smallest := left;
  if right < h.size && lt h.data.(right) h.data.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h ~time ~seq payload =
  grow h;
  h.data.(h.size) <- { time; seq; payload };
  h.size <- h.size + 1;
  if h.size > h.max_size then h.max_size <- h.size;
  sift_up h (h.size - 1)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    let last = h.data.(h.size) in
    h.data.(h.size) <- h.blank;
    if h.size > 0 then begin
      h.data.(0) <- last;
      sift_down h 0
    end;
    Some top
  end

let peek h = if h.size = 0 then None else Some h.data.(0)

let clear h =
  Array.fill h.data 0 h.size h.blank;
  h.size <- 0
