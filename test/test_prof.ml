(* The work profiler: scope attribution with a fake clock, fiber
   suspension (detach/attach through the engine), determinism of the
   counter plane across repeated seeds and across [-j], the
   flamegraph/snapshot renderers, and counter handles. *)

open Rdma_sim
open Rdma_obs
open Rdma_chaos

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let root_work = Prof.counter "root.work"
let ops = Prof.counter "ops"
let ignored = Prof.counter "ignored"
let work = Prof.counter "work"
let other = Prof.counter "other"
let events_popped = Prof.counter "sim.events.popped"

(* {2 Scope attribution, fake clock} *)

(* A controllable clock: each [now] read returns the scripted next
   value, so self/total times are exact. *)
let test_scope_attribution () =
  let t = ref 0.0 in
  let clock () = !t in
  let prof = Prof.create ~clock () in
  Prof.with_profiler prof (fun () ->
      Prof.bump root_work 1;
      Prof.scope "outer" (fun () ->
          t := 1.0;
          Prof.bump ops 2;
          Prof.scope "inner" (fun () ->
              t := 4.0;
              Prof.bump ops 3);
          t := 6.0));
  check bool "totals sum across scopes" true
    (Prof.totals prof = [ ("ops", 5); ("root.work", 1) ]);
  (* per-scope: root.work lands at the root, ops split by scope *)
  let by_scope = Prof.by_scope prof in
  check bool "root attribution" true
    (List.assoc "(root)" by_scope = [ ("root.work", 1) ]);
  check bool "outer attribution" true
    (List.assoc "outer" by_scope = [ ("ops", 2) ]);
  check bool "inner attribution" true
    (List.assoc "outer;inner" by_scope = [ ("ops", 3) ]);
  (* timing: outer total 6 (0..6), inner total 3 (1..4), outer self 3 *)
  let timing path =
    let _, calls, total_s, self_s =
      List.find (fun (p, _, _, _) -> p = path) (Prof.timings prof)
    in
    (calls, total_s, self_s)
  in
  let calls, total, self = timing "outer" in
  check int "outer calls" 1 calls;
  check (Alcotest.float 1e-9) "outer total" 6.0 total;
  check (Alcotest.float 1e-9) "outer self" 3.0 self;
  let calls, total, self = timing "outer;inner" in
  check int "inner calls" 1 calls;
  check (Alcotest.float 1e-9) "inner total" 3.0 total;
  check (Alcotest.float 1e-9) "inner self" 3.0 self

(* Without an installed profiler every hook must be a free no-op. *)
let test_no_profiler_noop () =
  Prof.bump ignored 1;
  check int "scope passes value through" 7 (Prof.scope "s" (fun () -> 7));
  check int "depth is 0" 0 (Prof.depth ())

(* {2 Fiber suspension} *)

(* A scope opened inside a fiber survives suspension: the engine
   detaches the frame across the sleep and re-attaches it on resume, so
   counts bumped after the resume still attribute to the fiber's scope —
   and work done by OTHER events while it sleeps does not. *)
let test_scope_across_suspension () =
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () ->
      let engine = Engine.create () in
      ignore
        (Engine.spawn engine "worker" (fun () ->
             Prof.scope "fiber.work" (fun () ->
                 Prof.bump work 1;
                 Engine.sleep 5.0;
                 Prof.bump work 10)));
      (* an interleaved timer event does unscoped work mid-sleep *)
      Engine.schedule engine 2.0 (fun () -> Prof.bump other 100);
      Engine.run engine);
  let by_scope = Prof.by_scope prof in
  check bool "fiber work stays scoped" true
    (List.assoc "fiber.work" by_scope = [ ("work", 11) ]);
  check bool "interleaved work is not captured by the fiber" true
    (match List.assoc_opt "(root)" by_scope with
    | Some rows -> List.mem ("other", 100) rows
    | None -> false)

(* A fiber cancelled while suspended inside a scope must not corrupt the
   stack: its frame was detached and is simply dropped; counts bumped
   before the crash survive. *)
let test_scope_cancelled_fiber () =
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () ->
      let engine = Engine.create () in
      let fiber =
        Engine.spawn engine "victim" (fun () ->
            Prof.scope "victim.scope" (fun () ->
                Prof.bump work 3;
                Engine.sleep 10.0;
                Prof.bump work 1000))
      in
      Engine.schedule engine 1.0 (fun () -> Engine.cancel fiber);
      Engine.run engine);
  check int "stack drained" 0 (Prof.depth ());
  (* totals also carry the engine's own sim.* counters; the fiber's
     counter is what must read exactly 3 *)
  check bool "pre-crash counts survive, post-crash never happen" true
    (List.assoc_opt "work" (Prof.totals prof) = Some 3);
  check bool "scoped attribution intact" true
    (List.assoc_opt "victim.scope" (Prof.by_scope prof)
    = Some [ ("work", 3) ])

(* {2 Determinism of the counter plane} *)

let explore_metrics ~jobs =
  let scenario =
    match Scenario.find "protected-paxos" with
    | Some s -> s
    | None -> Alcotest.fail "scenario protected-paxos missing"
  in
  let options = { Explore.default_options with runs = 6; seed = 11; jobs } in
  let batch = Explore.explore ~options scenario in
  Export.metrics batch.Explore.metrics

(* The chaos batch's merged metrics — including the absorbed [prof.*]
   op counters — must be byte-identical across repeated runs and across
   [-j 1] vs [-j 4]. *)
let test_counters_jobs_invariant () =
  let m1 = explore_metrics ~jobs:1 in
  let m1' = explore_metrics ~jobs:1 in
  let m4 = explore_metrics ~jobs:4 in
  check string "same seed, same bytes" m1 m1';
  check string "-j 1 equals -j 4" m1 m4;
  (* and the profiler actually measured something *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check bool "absorbed op counters present" true
    (contains m1 "prof.sha256.blocks" && contains m1 "prof.sim.events.popped")

(* Two identical seeded cluster runs under two fresh profilers produce
   identical deterministic planes with nonzero work. *)
let run_profiled_snapshot () =
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  let _report =
    Prof.with_profiler prof (fun () ->
        Rdma_consensus.Protected_paxos.run ~seed:3 ~n:2 ~m:3
          ~inputs:[| "a"; "b" |] ~faults:[] ())
  in
  (Export.perf_snapshot ~id:"pmp" prof, Prof.totals prof)

let test_snapshot_deterministic () =
  let s1, totals = run_profiled_snapshot () in
  let s2, _ = run_profiled_snapshot () in
  check string "snapshots byte-identical (fake clock)" s1 s2;
  let nonzero name =
    match List.assoc_opt name totals with Some n -> n > 0 | None -> false
  in
  List.iter
    (fun name -> check bool (name ^ " counted") true (nonzero name))
    [
      (* protected-paxos signs nothing (crash model), so no hmac.macs
         here; the Byzantine suites cover the crypto counters *)
      "sha256.blocks";
      "mem.ops.issued";
      "mem.ops.completed";
      "sim.events.popped";
      "sim.heap.pushes";
    ]

(* {2 Renderers} *)

let test_flamegraph_format () =
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () ->
      Prof.scope "a" (fun () ->
          Prof.bump events_popped 2;
          Prof.scope "b" (fun () -> Prof.bump events_popped 5)));
  let folded = Export.flamegraph prof in
  check string "collapsed stacks" "a 2\na;b 5\n" folded

let test_heap_peak_gauge () =
  let engine = Engine.create () in
  for i = 1 to 5 do
    Engine.schedule engine (float_of_int i) (fun () -> ())
  done;
  Engine.run engine;
  let gauges = Obs.gauges (Engine.obs engine) in
  match List.assoc_opt "sim.heap.peak_depth" gauges with
  | Some peak -> check bool "peak depth >= 5" true (peak >= 5.0)
  | None -> Alcotest.fail "sim.heap.peak_depth gauge missing"

(* {2 Counter handles} *)

let rows = Alcotest.(list (pair string int))

(* A handle is the counter's name resolved once: a second handle with
   the same name bumps the same counter, so it reads back as one row. *)
let test_same_name_one_row () =
  let a = Prof.counter "twin" and b = Prof.counter "twin" in
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () ->
      Prof.bump a 1;
      Prof.scope "s" (fun () ->
          Prof.bump b 2;
          Prof.bump a 3));
  check rows "one total row" [ ("twin", 6) ] (Prof.totals prof);
  check
    Alcotest.(list (pair string rows))
    "one row per scope"
    [ ("(root)", [ ("twin", 1) ]); ("s", [ ("twin", 5) ]) ]
    (Prof.by_scope prof)

(* A bump of 0 still makes a row (velos.read.leased pins its zero
   mem.ops.issued this way); a declared counter nobody bumps makes
   none. *)
let test_zero_bump_row () =
  let zero = Prof.counter "zero.bumped" in
  let _never = Prof.counter "never.bumped" in
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () -> Prof.scope "idle" (fun () -> Prof.bump zero 0));
  check rows "zero total" [ ("zero.bumped", 0) ] (Prof.totals prof);
  check
    Alcotest.(list (pair string rows))
    "zero row in its scope"
    [ ("idle", [ ("zero.bumped", 0) ]) ]
    (Prof.by_scope prof)

(* Paths are built from the scope tree only at read-back: under
   nesting, a re-entered scope, a fiber resumed inside its scope, a
   fiber cancelled while suspended and a fiber disposed while parked,
   counts and timings read back under the paths the string-keyed
   tables produced. *)
let test_scope_path_strings () =
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  Prof.with_profiler prof (fun () ->
      let engine = Engine.create () in
      Prof.bump work 1;
      Prof.scope "a" (fun () ->
          Prof.bump work 1;
          Prof.scope "b" (fun () -> Prof.bump work 1);
          Prof.scope "b" (fun () -> Prof.scope "c" (fun () -> Prof.bump work 1)));
      Prof.scope "b" (fun () -> Prof.bump work 1);
      ignore
        (Engine.spawn engine "sleeper" (fun () ->
             Prof.scope "fiber" (fun () ->
                 Engine.sleep 1.0;
                 Prof.scope "after" (fun () -> Prof.bump work 1))));
      let victim =
        Engine.spawn engine "victim" (fun () ->
            Prof.scope "victim" (fun () ->
                Prof.bump work 1;
                Engine.sleep 5.0;
                Prof.bump work 1))
      in
      ignore
        (Engine.spawn engine "parked" (fun () ->
             Prof.scope "parked" (fun () ->
                 Prof.bump work 1;
                 ignore (Ivar.await (Ivar.create () : int Ivar.t)))));
      Engine.schedule engine 2.0 (fun () ->
          Engine.cancel victim;
          Prof.bump other 1);
      Prof.scope "run" (fun () -> Engine.run engine);
      Engine.dispose engine);
  check
    Alcotest.(list (pair string rows))
    "counts by path"
    [
      ("(root)", [ ("sim.heap.pushes", 4); ("work", 1) ]);
      ("a", [ ("work", 1) ]);
      ("a;b", [ ("work", 1) ]);
      ("a;b;c", [ ("work", 1) ]);
      ("b", [ ("work", 1) ]);
      ("run", [ ("other", 1); ("sim.events.popped", 8); ("sim.heap.pushes", 4) ]);
      ("run;fiber;after", [ ("work", 1) ]);
      ("run;parked", [ ("work", 1) ]);
      ("run;victim", [ ("work", 1) ]);
    ]
    (Prof.by_scope prof);
  check rows "calls by path"
    [
      ("a", 1);
      ("a;b", 2);
      ("a;b;c", 1);
      ("b", 1);
      ("run", 1);
      ("run;fiber", 1);
      ("run;fiber;after", 1);
      ("run;victim", 1);
    ]
    (List.map (fun (path, calls, _, _) -> (path, calls)) (Prof.timings prof))

let suite =
  [
    Alcotest.test_case "scope attribution with a fake clock" `Quick
      test_scope_attribution;
    Alcotest.test_case "no installed profiler is a no-op" `Quick
      test_no_profiler_noop;
    Alcotest.test_case "scope survives fiber suspension" `Quick
      test_scope_across_suspension;
    Alcotest.test_case "cancelled fiber drops its frame cleanly" `Quick
      test_scope_cancelled_fiber;
    Alcotest.test_case "chaos op counters identical at -j 1 and -j 4" `Quick
      test_counters_jobs_invariant;
    Alcotest.test_case "profiled run snapshot is deterministic" `Quick
      test_snapshot_deterministic;
    Alcotest.test_case "flamegraph collapsed-stack format" `Quick
      test_flamegraph_format;
    Alcotest.test_case "event-heap peak depth gauge" `Quick
      test_heap_peak_gauge;
    Alcotest.test_case "same-name handles read back as one row" `Quick
      test_same_name_one_row;
    Alcotest.test_case "a zero bump makes a row" `Quick test_zero_bump_row;
    Alcotest.test_case "scope paths read back as strings" `Quick
      test_scope_path_strings;
  ]
