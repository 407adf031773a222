(* The deterministic task/pool layer: results in submission order at
   any job count, per-task exception capture, edge cases (zero tasks,
   one task, more workers than tasks), byte-identical output when a
   real simulation — a full Paxos run per task — executes on worker
   domains instead of the coordinator, and the streaming fold's bounds:
   its window, its laziness, and a folding function that raises. *)

open Rdma_sim
open Rdma_consensus

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string

let squares n =
  List.init n (fun i ->
      Task.make ~label:(Printf.sprintf "sq%d" i) ~seed:i (fun ~seed ->
          seed * seed))

(* {2 Ordering} *)

(* Results come back in submission order no matter how many domains
   race over the queue, including uneven per-task workloads, whether
   collected by [run_exn] or by [fold]. *)
let fold_list ~jobs tasks =
  Pool.fold ~jobs (List.to_seq tasks) ~init:[] ~f:(fun acc -> function
    | Ok r -> r :: acc
    | Error e -> raise e.Pool.exn)
  |> List.rev

let test_submission_order () =
  List.iter
    (fun jobs ->
      let tasks =
        List.init 17 (fun i ->
            Task.make ~label:(Printf.sprintf "t%d" i) ~seed:i (fun ~seed ->
                (* skew the work so completion order differs from
                   submission order under real parallelism *)
                let spin = (17 - seed) * 1000 in
                let acc = ref 0 in
                for k = 1 to spin do
                  acc := !acc + k
                done;
                ignore !acc;
                seed))
      in
      List.iter
        (fun (how, collect) ->
          check (Alcotest.list int)
            (Printf.sprintf "%s order at jobs=%d" how jobs)
            (List.init 17 Fun.id) (collect ~jobs tasks))
        [ ("run_exn", fun ~jobs -> Pool.run_exn ~jobs); ("fold", fold_list) ])
    [ 1; 2; 4; 32 ]

(* {2 Edge cases} *)

let test_zero_tasks () =
  check (Alcotest.list int) "zero tasks" [] (Pool.run_exn ~jobs:4 []);
  check (Alcotest.list int) "zero tasks inline" [] (Pool.run_exn ~jobs:1 [])

let test_single_task () =
  check (Alcotest.list int) "one task, many workers" [ 49 ]
    (Pool.run_exn ~jobs:8 (squares 8 |> List.filteri (fun i _ -> i = 7)))

let test_more_workers_than_tasks () =
  check (Alcotest.list int) "jobs > tasks" [ 0; 1; 4 ]
    (Pool.run_exn ~jobs:64 (squares 3))

(* {2 Exception capture} *)

exception Boom of int

let mixed_tasks =
  List.init 6 (fun i ->
      Task.make ~label:(Printf.sprintf "mixed%d" i) ~seed:i (fun ~seed ->
          if seed mod 2 = 1 then raise (Boom seed) else seed * 10))

(* A raising task fills its own slot with [Error]; its neighbours are
   unaffected, and the error remembers which task raised. *)
let test_exception_capture () =
  List.iter
    (fun jobs ->
      let results =
        Pool.fold ~jobs (List.to_seq mixed_tasks) ~init:[] ~f:(fun acc r ->
            r :: acc)
        |> List.rev
      in
      check int "six slots" 6 (List.length results);
      List.iteri
        (fun i r ->
          match r with
          | Ok v ->
              check int (Printf.sprintf "slot %d ok" i) (i * 10) v;
              check Alcotest.bool "even seeds succeed" true (i mod 2 = 0)
          | Error { Pool.task_label; task_seed; exn } ->
              check Alcotest.bool "odd seeds fail" true (i mod 2 = 1);
              check string "label" (Printf.sprintf "mixed%d" i) task_label;
              check int "seed" i task_seed;
              (match exn with
              | Boom n -> check int "payload" i n
              | e -> Alcotest.failf "unexpected exn %s" (Printexc.to_string e)))
        results)
    [ 1; 4 ]

(* [run_exn] re-raises the first error in submission order — seed 1
   here — even if a later task's exception happened first on the
   wall clock. *)
let test_run_exn_reraises_first () =
  List.iter
    (fun jobs ->
      match Pool.run_exn ~jobs mixed_tasks with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n -> check int "first failing seed" 1 n)
    [ 1; 4 ]

(* {2 Determinism with real simulations} *)

let paxos_digest (report : Report.t) =
  Fmt.str "%a" Report.pp report

(* Each task runs a complete seeded Paxos simulation (its own engine,
   cluster and collector inside the worker domain).  The folded digest
   must be byte-identical at every job count. *)
let test_seeded_sim_digest () =
  let batch jobs =
    Pool.run_exn ~jobs
      (List.init 6 (fun i ->
           Task.make ~label:(Printf.sprintf "paxos%d" i) ~seed:(100 + i)
             (fun ~seed ->
               let n = 3 in
               let inputs = Array.init n (Printf.sprintf "s%d-v%d" seed) in
               paxos_digest (Paxos.run ~n ~seed ~inputs ()))))
    |> String.concat "\n"
  in
  let reference = batch 1 in
  List.iter
    (fun jobs ->
      check string (Printf.sprintf "digest at jobs=%d" jobs) reference
        (batch jobs))
    [ 2; 4 ]

(* {2 The streaming fold} *)

let spin n =
  let acc = ref 0 in
  for k = 1 to n do
    acc := !acc + k
  done;
  ignore !acc

(* Raise [peak] to [v] if it is higher. *)
let rec raise_peak peak v =
  let p = Atomic.get peak in
  if v > p && not (Atomic.compare_and_set peak p v) then raise_peak peak v

(* Results produced but not yet folded never exceed 2 x workers, even
   when the fold is much slower than the tasks. *)
let test_fold_window () =
  List.iter
    (fun jobs ->
      let unfolded = Atomic.make 0 and peak = Atomic.make 0 in
      let tasks =
        Seq.init 200 (fun i ->
            Task.make ~label:(Printf.sprintf "w%d" i) ~seed:i (fun ~seed ->
                raise_peak peak (Atomic.fetch_and_add unfolded 1 + 1);
                seed))
      in
      let sum =
        Pool.fold ~jobs tasks ~init:0 ~f:(fun acc r ->
            spin 20_000;
            Atomic.decr unfolded;
            match r with Ok v -> acc + v | Error e -> raise e.Pool.exn)
      in
      check int (Printf.sprintf "sum at jobs=%d" jobs) (199 * 200 / 2) sum;
      let bound = 2 * jobs in
      if Atomic.get peak > bound then
        Alcotest.failf "jobs=%d: %d results unfolded, bound %d" jobs
          (Atomic.get peak) bound)
    [ 1; 2; 4 ]

(* Tasks are pulled lazily: when [f] receives result i, the sequence
   has yielded at most i + 1 + 2 x workers tasks. *)
let test_fold_lazy () =
  List.iter
    (fun jobs ->
      let yielded = Atomic.make 0 in
      let tasks =
        Seq.init 300 Fun.id
        |> Seq.map (fun i ->
               Atomic.incr yielded;
               Task.make ~label:(Printf.sprintf "l%d" i) ~seed:i (fun ~seed -> seed))
      in
      let folded =
        Pool.fold ~jobs tasks ~init:0 ~f:(fun i r ->
            (match r with
            | Ok v -> check int "submission order" i v
            | Error e -> raise e.Pool.exn);
            let bound = i + 1 + (2 * jobs) in
            if Atomic.get yielded > bound then
              Alcotest.failf "jobs=%d: %d tasks pulled at result %d, bound %d" jobs
                (Atomic.get yielded) i bound;
            i + 1)
      in
      check int (Printf.sprintf "all folded at jobs=%d" jobs) 300 folded)
    [ 1; 4 ]

exception Stop of int

(* A raising [f] stops the pool: the exception surfaces only once no
   task is running any more (the workers were joined), and the pool
   stopped pulling tasks near the failure instead of running them all.
   Tasks after the failing result are slow, so some are still running
   when [f] raises. *)
let test_fold_raising_f () =
  List.iter
    (fun jobs ->
      let running = Atomic.make 0 and started = Atomic.make 0 in
      let tasks =
        Seq.init 1000 (fun i ->
            Task.make ~label:(Printf.sprintf "r%d" i) ~seed:i (fun ~seed ->
                Atomic.incr started;
                Atomic.incr running;
                spin (if seed > 3 then 5_000_000 else 1_000);
                Atomic.decr running;
                seed))
      in
      (match
         Pool.fold ~jobs tasks ~init:() ~f:(fun () r ->
             match r with Ok 3 -> raise (Stop 3) | _ -> ())
       with
      | () -> Alcotest.fail "expected Stop"
      | exception Stop n -> check int "the raising result" 3 n);
      check int (Printf.sprintf "no task running at jobs=%d" jobs) 0
        (Atomic.get running);
      if Atomic.get started > 4 + (2 * jobs) then
        Alcotest.failf "jobs=%d: %d tasks started after a stop at result 3" jobs
          (Atomic.get started))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "results in submission order" `Quick
      test_submission_order;
    Alcotest.test_case "zero tasks" `Quick test_zero_tasks;
    Alcotest.test_case "single task" `Quick test_single_task;
    Alcotest.test_case "more workers than tasks" `Quick
      test_more_workers_than_tasks;
    Alcotest.test_case "exceptions captured per slot" `Quick
      test_exception_capture;
    Alcotest.test_case "run_exn re-raises first error" `Quick
      test_run_exn_reraises_first;
    Alcotest.test_case "seeded sims byte-identical at any -j" `Quick
      test_seeded_sim_digest;
    Alcotest.test_case "fold: at most 2 x workers unfolded" `Quick
      test_fold_window;
    Alcotest.test_case "fold: tasks pulled lazily" `Quick test_fold_lazy;
    Alcotest.test_case "fold: raising f joins, then re-raises" `Quick
      test_fold_raising_f;
  ]
