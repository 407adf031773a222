(* Unit tests for the event heap: ordering, determinism, stability,
   that it keeps no popped payload alive, and a model check. *)

open Rdma_sim

let test_ordering () =
  let h = Heap.create ~filler:"" () in
  Heap.push h ~time:3.0 ~seq:1 "c";
  Heap.push h ~time:1.0 ~seq:2 "a";
  Heap.push h ~time:2.0 ~seq:3 "b";
  let pop () = if Heap.is_empty h then "empty" else Heap.pop h in
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
    if Heap.is_empty h then Alcotest.fail "heap exhausted early";
    Alcotest.(check int) "fifo at equal time" i (Heap.pop h)
  done

let test_interleaved () =
  let h = Heap.create ~filler:0 () in
  let n = 1000 in
  let st = Random.State.make [| 7 |] in
  let times = Array.init n (fun i -> (float_of_int (Random.State.int st 50), i)) in
  Array.iteri (fun i (t, _) -> Heap.push h ~time:t ~seq:i i) times;
  let prev = ref (-1.0, -1) in
  for _ = 1 to n do
    if Heap.is_empty h then Alcotest.fail "heap exhausted early";
    let time = Heap.min_time h in
    let seq = Heap.pop h in
    let pt, ps = !prev in
    if time < pt || (time = pt && seq < ps) then
      Alcotest.fail "heap order violated";
    prev := (time, seq)
  done;
  Alcotest.(check bool) "empty at end" true (Heap.is_empty h)

let test_peek () =
  let h = Heap.create ~filler:"" () in
  Alcotest.check_raises "min_time of empty"
    (Invalid_argument "Heap.min_time: empty heap") (fun () ->
      ignore (Heap.min_time h));
  Heap.push h ~time:2.0 ~seq:1 "x";
  Heap.push h ~time:1.0 ~seq:2 "y";
  Alcotest.(check (float 0.)) "min_time is the least time" 1.0 (Heap.min_time h);
  Alcotest.(check int) "size unchanged by min_time" 2 (Heap.size h);
  Alcotest.(check string) "pop returns that entry" "y" (Heap.pop h)

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
  while not (Heap.is_empty h) do
    ignore (Heap.pop h);
    incr popped
  done;
  Alcotest.(check int) "all popped" n !popped;
  Gc.full_major ();
  let pinned = List.filter (Weak.check watch) (List.init n Fun.id) in
  Alcotest.(check (list int)) "no popped payload pinned" [] pinned;
  Alcotest.(check bool) "heap still live and empty" true (Heap.is_empty h)

(* Pushes and pops against a model that keeps [(time, seq, payload)]
   sorted: every pop returns the model's least payload, [min_time] its
   time, and the sizes agree.  Times are halves from 0 to 5, so ties
   are common. *)
let matches_sorted_model =
  QCheck2.Test.make ~name:"heap: push/pop match a sorted-list model" ~count:300
    QCheck2.Gen.(list_size (0 -- 200) (option (0 -- 10)))
    (fun ops ->
      let h = Heap.create ~filler:(-1) () in
      let model = ref [] in
      List.iteri
        (fun seq op ->
          (match (op, !model) with
          | Some k, _ ->
              let time = float_of_int k /. 2. in
              Heap.push h ~time ~seq seq;
              model := List.merge compare !model [ (time, seq, seq) ]
          | None, [] -> assert (Heap.is_empty h)
          | None, (time, _, payload) :: rest ->
              assert (Heap.min_time h = time);
              assert (Heap.pop h = payload);
              model := rest);
          assert (Heap.size h = List.length !model))
        ops;
      List.iter (fun (_, _, payload) -> assert (Heap.pop h = payload)) !model;
      Heap.is_empty h)

let suite =
  [
    Alcotest.test_case "pops in time order" `Quick test_ordering;
    Alcotest.test_case "same-time entries pop FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "random interleaving stays sorted" `Quick test_interleaved;
    Alcotest.test_case "peek returns min without removing" `Quick test_peek;
    Alcotest.test_case "popped payloads are released" `Quick
      test_pop_releases_payloads;
    QCheck_alcotest.to_alcotest matches_sorted_model;
  ]
