(* Unit tests for the event heap: ordering, determinism, stability, and
   that it keeps no popped payload alive. *)

open Rdma_sim

let test_ordering () =
  let h = Heap.create ~filler:"" () in
  Heap.push h ~time:3.0 ~seq:1 "c";
  Heap.push h ~time:1.0 ~seq:2 "a";
  Heap.push h ~time:2.0 ~seq:3 "b";
  let pop () =
    match Heap.pop h with Some e -> e.Heap.payload | None -> "empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check string) "empty" "empty" (pop ())

let test_same_time_fifo () =
  let h = Heap.create ~filler:0 () in
  for i = 1 to 100 do
    Heap.push h ~time:5.0 ~seq:i i
  done;
  for i = 1 to 100 do
    match Heap.pop h with
    | Some e -> Alcotest.(check int) "fifo at equal time" i e.Heap.payload
    | None -> Alcotest.fail "heap exhausted early"
  done

let test_interleaved () =
  let h = Heap.create ~filler:0 () in
  let n = 1000 in
  let st = Random.State.make [| 7 |] in
  let times = Array.init n (fun i -> (float_of_int (Random.State.int st 50), i)) in
  Array.iteri (fun i (t, _) -> Heap.push h ~time:t ~seq:i i) times;
  let prev = ref (-1.0, -1) in
  for _ = 1 to n do
    match Heap.pop h with
    | None -> Alcotest.fail "heap exhausted early"
    | Some e ->
        let pt, ps = !prev in
        if e.Heap.time < pt || (e.Heap.time = pt && e.Heap.seq < ps) then
          Alcotest.fail "heap order violated";
        prev := (e.Heap.time, e.Heap.seq)
  done;
  Alcotest.(check bool) "empty at end" true (Heap.is_empty h)

let test_peek () =
  let h = Heap.create ~filler:"" () in
  Alcotest.(check bool) "peek empty" true (Heap.peek h = None);
  Heap.push h ~time:2.0 ~seq:1 "x";
  Heap.push h ~time:1.0 ~seq:2 "y";
  (match Heap.peek h with
  | Some e -> Alcotest.(check string) "peek min" "y" e.Heap.payload
  | None -> Alcotest.fail "peek returned None");
  Alcotest.(check int) "size unchanged by peek" 2 (Heap.size h)

(* Popped entries are released: the heap (still live, and grown past
   its first capacity) holds no reference to any payload it returned,
   neither in the slot it vacated nor in slots a resize filled.  The
   payloads are watched through a weak array, so only the heap could
   keep them alive. *)
let test_pop_releases_payloads () =
  let n = 40 in
  let h = Heap.create ~filler:(ref (-1)) () in
  let watch = Weak.create n in
  (* a separate function, so no local of this frame keeps a payload *)
  let push_all () =
    for i = 0 to n - 1 do
      let payload = ref i in
      Weak.set watch i (Some payload);
      Heap.push h ~time:(float_of_int (i mod 7)) ~seq:i payload
    done
  in
  push_all ();
  let popped = ref 0 in
  while Heap.pop h <> None do
    incr popped
  done;
  Alcotest.(check int) "all popped" n !popped;
  Gc.full_major ();
  let pinned = List.filter (Weak.check watch) (List.init n Fun.id) in
  Alcotest.(check (list int)) "no popped payload pinned" [] pinned;
  Alcotest.(check bool) "heap still live and empty" true (Heap.is_empty h)

let suite =
  [
    Alcotest.test_case "pops in time order" `Quick test_ordering;
    Alcotest.test_case "same-time entries pop FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "random interleaving stays sorted" `Quick test_interleaved;
    Alcotest.test_case "peek returns min without removing" `Quick test_peek;
    Alcotest.test_case "popped payloads are released" `Quick
      test_pop_releases_payloads;
  ]
