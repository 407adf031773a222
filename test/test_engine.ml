(* Unit tests for the simulator engine: virtual time, fibers, ivars,
   mailboxes, cancellation, timeouts, determinism. *)

open Rdma_sim

let test_virtual_time () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng 5.0 (fun () -> log := (Engine.now eng, "b") :: !log);
  Engine.schedule eng 1.0 (fun () -> log := (Engine.now eng, "a") :: !log);
  Engine.run eng;
  Alcotest.(check (list (pair (float 0.0) string)))
    "events fire at their virtual times in order"
    [ (1.0, "a"); (5.0, "b") ]
    (List.rev !log)

let test_fiber_sleep () =
  let eng = Engine.create () in
  let finished_at = ref (-1.0) in
  ignore
    (Engine.spawn eng "sleeper" (fun () ->
         Engine.sleep 2.0;
         Engine.sleep 3.0;
         finished_at := Engine.now eng));
  Engine.run eng;
  Alcotest.(check (float 0.0)) "sleeps accumulate" 5.0 !finished_at

let test_ivar_basic () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref 0 in
  ignore (Engine.spawn eng "waiter" (fun () -> got := Ivar.await iv));
  ignore
    (Engine.spawn eng "filler" (fun () ->
         Engine.sleep 1.5;
         Ivar.fill iv 42));
  Engine.run eng;
  Alcotest.(check int) "await returns filled value" 42 !got

let test_ivar_multiple_waiters () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 5 do
    ignore (Engine.spawn eng "w" (fun () -> sum := !sum + Ivar.await iv))
  done;
  ignore (Engine.spawn eng "filler" (fun () -> Ivar.fill iv 10));
  Engine.run eng;
  Alcotest.(check int) "all waiters wake" 50 !sum

let test_ivar_double_fill_raises () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.check_raises "second fill raises"
    (Invalid_argument "Ivar.fill: already full") (fun () -> Ivar.fill iv 2)

let test_ivar_timeout () =
  let eng = Engine.create () in
  let never = Ivar.create () in
  let result = ref (Some 99) in
  let when_ = ref 0.0 in
  ignore
    (Engine.spawn eng "waiter" (fun () ->
         result := Ivar.await_timeout never 4.0;
         when_ := Engine.now eng));
  Engine.run eng;
  Alcotest.(check bool) "timed out" true (!result = None);
  Alcotest.(check (float 0.0)) "timeout fires at deadline" 4.0 !when_

let test_ivar_timeout_beats_deadline () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let result = ref None in
  ignore (Engine.spawn eng "waiter" (fun () -> result := Ivar.await_timeout iv 10.0));
  ignore
    (Engine.spawn eng "filler" (fun () ->
         Engine.sleep 2.0;
         Ivar.fill iv "v"));
  Engine.run eng;
  Alcotest.(check (option string)) "value wins race" (Some "v") !result

let test_cancellation () =
  let eng = Engine.create () in
  let reached = ref false in
  let fiber =
    Engine.spawn eng "victim" (fun () ->
        Engine.sleep 5.0;
        reached := true)
  in
  Engine.schedule eng 2.0 (fun () -> Engine.cancel fiber);
  Engine.run eng;
  Alcotest.(check bool) "cancelled fiber takes no further steps" false !reached

let test_cancelled_before_start () =
  let eng = Engine.create () in
  let reached = ref false in
  let fiber = Engine.spawn eng "victim" (fun () -> reached := true) in
  Engine.cancel fiber;
  Engine.run eng;
  Alcotest.(check bool) "cancel before first step" false !reached

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let box = Mailbox.create () in
  let got = ref [] in
  ignore
    (Engine.spawn eng "recv" (fun () ->
         for _ = 1 to 3 do
           got := Mailbox.recv box :: !got
         done));
  ignore
    (Engine.spawn eng "send" (fun () ->
         Mailbox.send box "a";
         Engine.sleep 1.0;
         Mailbox.send box "b";
         Mailbox.send box "c"));
  Engine.run eng;
  Alcotest.(check (list string)) "fifo order" [ "a"; "b"; "c" ] (List.rev !got)

let test_mailbox_timeout_preserves_message () =
  let eng = Engine.create () in
  let box = Mailbox.create () in
  let first = ref (Some "x") in
  let second = ref None in
  ignore
    (Engine.spawn eng "recv" (fun () ->
         first := Mailbox.recv_timeout box 1.0;
         (* message arrives after the timeout; a later recv must get it *)
         Engine.sleep 5.0;
         second := Mailbox.recv_timeout box 1.0));
  ignore
    (Engine.spawn eng "send" (fun () ->
         Engine.sleep 3.0;
         Mailbox.send box "late"));
  Engine.run eng;
  Alcotest.(check (option string)) "first recv times out" None !first;
  Alcotest.(check (option string)) "late message not lost" (Some "late") !second

let test_errors_recorded () =
  let eng = Engine.create () in
  ignore (Engine.spawn eng "bomber" (fun () -> failwith "boom"));
  Engine.run eng;
  match Engine.errors eng with
  | [ (name, Failure msg) ] ->
      Alcotest.(check string) "fiber name" "bomber" name;
      Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "expected exactly one recorded error"

let test_determinism () =
  let run_once () =
    let eng = Engine.create ~seed:3 () in
    let log = Buffer.create 64 in
    for i = 0 to 4 do
      ignore
        (Engine.spawn eng (Printf.sprintf "f%d" i) (fun () ->
             Engine.sleep (float_of_int (5 - i));
             Buffer.add_string log (Printf.sprintf "%d@%.0f;" i (Engine.now eng))))
    done;
    Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "identical runs" (run_once ()) (run_once ())

let test_deadlock_guard () =
  let eng = Engine.create ~max_steps:100 () in
  ignore
    (Engine.spawn eng "spinner" (fun () ->
         while true do
           Engine.yield ()
         done));
  Alcotest.(check bool) "step budget trips" true
    (try
       Engine.run eng;
       false
     with Engine.Deadlock _ -> true)

let test_par_await_k () =
  let eng = Engine.create () in
  let ivars = Array.init 5 (fun _ -> Ivar.create ()) in
  let done_at = ref 0.0 in
  let count = ref 0 in
  ignore
    (Engine.spawn eng "waiter" (fun () ->
         let completed = Par.await_k ivars 3 in
         count := List.length completed;
         done_at := Engine.now eng));
  Array.iteri
    (fun i iv ->
      Engine.schedule eng (float_of_int (i + 1)) (fun () -> Ivar.fill iv i))
    ivars;
  Engine.run eng;
  Alcotest.(check bool) "at least k completed" true (!count >= 3);
  Alcotest.(check (float 0.0)) "returns when the k-th fills" 3.0 !done_at

let test_par_await_k_timeout () =
  let eng = Engine.create () in
  let ivars = Array.init 3 (fun _ -> Ivar.create ()) in
  Ivar.fill ivars.(1) "ready";
  let got = ref [] in
  ignore
    (Engine.spawn eng "waiter" (fun () -> got := Par.await_k_timeout ivars 3 2.5));
  Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "timeout returns partial results" [ (1, "ready") ] !got

(* A crashed issuer must tear down its quorum wait at cancel time: the
   callbacks Par.await_k registered on still-unfilled ivars are
   deregistered, so a completion that arrives after the crash — a lagged
   one under a weak ordering model in particular — finds no waiter and
   nothing leaks on ivars that may never fill. *)
let test_par_await_k_cancel_unhooks () =
  let eng = Engine.create () in
  let ivars = Array.init 3 (fun _ -> Ivar.create ()) in
  let resumed = ref false in
  let waiter =
    Engine.spawn eng "waiter" (fun () ->
        ignore (Par.await_k ivars 2);
        resumed := true)
  in
  Engine.schedule eng 1.0 (fun () -> Ivar.fill ivars.(0) "a");
  Engine.schedule eng 2.0 (fun () -> Engine.cancel waiter);
  Engine.schedule eng 3.0 (fun () ->
      Array.iter
        (fun iv ->
          Alcotest.(check int) "no waiter survives the crash" 0
            (Ivar.waiter_count iv))
        ivars;
      (* late (lagged) completions find no waiter and stay inert *)
      Ivar.fill ivars.(1) "b";
      Ivar.fill ivars.(2) "c");
  Engine.run eng;
  Alcotest.(check bool) "cancelled waiter never resumed" false !resumed;
  match Engine.errors eng with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

let test_par_await_k_timeout_cancel_unhooks () =
  let eng = Engine.create () in
  let ivars = Array.init 2 (fun _ -> Ivar.create ()) in
  let resumed = ref false in
  let waiter =
    Engine.spawn eng "waiter" (fun () ->
        ignore (Par.await_k_timeout ivars 2 50.0);
        resumed := true)
  in
  Engine.schedule eng 1.0 (fun () -> Engine.cancel waiter);
  Engine.schedule eng 2.0 (fun () ->
      Array.iter
        (fun iv ->
          Alcotest.(check int) "timed wait unhooked on crash" 0
            (Ivar.waiter_count iv))
        ivars;
      Ivar.fill ivars.(0) 1;
      Ivar.fill ivars.(1) 2);
  Engine.run eng;
  (* the 50.0 timer still fires, finds the wait settled, and is a no-op *)
  Alcotest.(check bool) "cancelled waiter never resumed" false !resumed;
  match Engine.errors eng with
  | [] -> ()
  | (n, e) :: _ -> Alcotest.failf "fiber %s raised %s" n (Printexc.to_string e)

(* {2 Disposal} *)

(* Everything a caller can read from a finished run, as plain values:
   spans are copied out, since disposal must not close them. *)
let readable eng prof =
  let open Rdma_obs in
  let obs = Engine.obs eng in
  ( ( Obs.counters obs,
      Obs.gauges obs,
      Obs.summaries obs,
      Obs.events obs,
      List.map
        (fun sp -> (Obs.span_name sp, Obs.span_start sp, Obs.span_stop sp))
        (Obs.spans obs) ),
    ( Prof.totals prof,
      List.map (fun (path, calls, _, _) -> (path, calls)) (Prof.timings prof),
      Engine.steps eng,
      Engine.now eng ) )

(* [dispose] unwinds a fiber parked forever inside a span and a profiler
   scope, and moves nothing readable: counters, gauges, histogram
   summaries (the open span adds no sample), recorded entries, profiler
   totals and call counts, steps and time. *)
let test_dispose_moves_nothing () =
  let open Rdma_obs in
  let eng = Engine.create () in
  let obs = Engine.obs eng in
  Obs.set_recording obs true;
  let prof = Prof.create ~clock:(fun () -> 0.0) () in
  let unwound = ref false in
  Prof.with_profiler prof (fun () ->
      ignore
        (Engine.spawn eng "parked" (fun () ->
             Obs.with_span obs ~actor:"parked" ~cat:"phase" "wait" (fun () ->
                 Prof.scope "parked.inner" (fun () ->
                     Fun.protect
                       ~finally:(fun () -> unwound := true)
                       (fun () ->
                         ignore (Ivar.await (Ivar.create () : int Ivar.t)))))));
      ignore
        (Engine.spawn eng "worker" (fun () ->
             Obs.with_span obs ~actor:"worker" ~cat:"phase" "wait" (fun () ->
                 Engine.sleep 2.0;
                 Obs.count obs "work" 1;
                 Prof.bump (Prof.counter "work") 1)));
      Engine.run eng;
      let before = readable eng prof in
      Alcotest.(check bool) "parked before dispose" false !unwound;
      Engine.dispose eng;
      Alcotest.(check bool) "parked fiber unwound" true !unwound;
      Alcotest.(check bool) "nothing readable moved" true (before = readable eng prof);
      Alcotest.(check (list (pair string int)))
        "one wait sample, the finished one" [ ("wait", 1) ]
        (List.map (fun (name, s) -> (name, s.Hist.count)) (Obs.summaries obs)))

(* Every comparison with NaN is false, so a NaN delay would fire out
   of order and leave the clock reading NaN: both entry points refuse
   it, like a negative delay, before anything is queued. *)
let test_nan_delay_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "schedule rejects nan"
    (Invalid_argument "Engine.schedule: negative or NaN delay") (fun () ->
      Engine.schedule eng Float.nan ignore);
  let slept = ref None in
  ignore
    (Engine.spawn eng "sleeper" (fun () ->
         slept :=
           Some
             (match Engine.sleep Float.nan with
             | () -> "slept"
             | exception Invalid_argument msg -> msg)));
  Engine.run eng;
  Alcotest.(check (option string)) "sleep rejects nan"
    (Some "Engine.sleep: negative or NaN delay") !slept;
  Alcotest.(check int) "only the spawn ran" 1 (Engine.steps eng);
  Alcotest.(check (float 0.)) "the clock never moved" 0. (Engine.now eng)

(* Random nested schedules, fiber suspensions and cancels, checked
   against the (time, seq) order: every event the test schedules gets
   an id in schedule order and its due time [now +. delay], and the
   events must run exactly in the order of those pairs.  Delays are 0,
   small integers and halves, and, once the clock reads at least 1, a
   positive delay below one ulp of it, which is due now and must run
   after the events already due now. *)
let event_order =
  QCheck2.Test.make ~name:"engine: events run in (time, seq) order" ~count:200
    QCheck2.Gen.(1 -- 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let eng = Engine.create () in
      let due = ref [] and ran = ref [] and next_id = ref 0 in
      let delay () =
        match Random.State.int rng 4 with
        | 0 -> 0.
        | 1 -> if Engine.now eng >= 1. then 1e-300 else 0.
        | 2 -> float_of_int (1 + Random.State.int rng 3)
        | _ -> 0.5 +. float_of_int (Random.State.int rng 3)
      in
      let sched body =
        let d = delay () in
        let id = !next_id in
        incr next_id;
        due := (Engine.now eng +. d, id) :: !due;
        Engine.schedule eng d (fun () ->
            ran := id :: !ran;
            body ())
      in
      let fibers = ref [||] in
      let rec work () =
        if !next_id < 300 then
          for _ = 1 to Random.State.int rng 3 do
            sched work
          done;
        if Array.length !fibers > 0 && Random.State.int rng 8 = 0 then
          Engine.cancel !fibers.(Random.State.int rng (Array.length !fibers))
      in
      fibers :=
        Array.init 3 (fun i ->
            Engine.spawn eng (Printf.sprintf "f%d" i) (fun () ->
                for _ = 1 to 1 + Random.State.int rng 6 do
                  Engine.suspend (fun _ _ resume -> sched (fun () -> resume ()));
                  if Random.State.bool rng then Engine.yield ();
                  work ()
                done));
      sched work;
      Engine.run eng;
      List.rev !ran = List.map snd (List.sort compare !due))

(* [sim.events.popped] counts the events a run ran, all in the caller's
   scope, never in a scope a payload opens: for a run to quiescence, for
   a run a plain callback's exception ends, and for a run [Deadlock]
   ends, whose tripping event never runs. *)
let test_events_popped_per_run () =
  let module Prof = Rdma_obs.Prof in
  let popped ?max_steps ~events setup =
    let eng = Engine.create ?max_steps () in
    setup eng;
    let prof = Prof.create () in
    Prof.with_profiler prof (fun () ->
        Prof.scope "caller" (fun () ->
            try Engine.run eng with Failure _ | Engine.Deadlock _ -> ()));
    let rows =
      List.filter_map
        (fun (path, rows) ->
          Option.map (fun n -> (path, n)) (List.assoc_opt "sim.events.popped" rows))
        (Prof.by_scope prof)
    in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "%d events popped in the caller's scope" events)
      [ ("caller", events) ] rows
  in
  (* three fibers, each started, then woken from a sleep and from a
     yield, each wake-up a timer event and a resume event: 15 events *)
  popped ~events:15 (fun eng ->
      for i = 1 to 3 do
        ignore
          (Engine.spawn eng (Printf.sprintf "f%d" i) (fun () ->
               Prof.scope "fiber" (fun () ->
                   Engine.sleep 1.0;
                   Engine.yield ())))
      done);
  (* the second of three callbacks raises out of [run] inside a scope *)
  popped ~events:2 (fun eng ->
      Engine.schedule eng 1.0 ignore;
      Engine.schedule eng 2.0 (fun () ->
          Prof.scope "callback" (fun () -> failwith "boom"));
      Engine.schedule eng 3.0 ignore);
  (* a spinner trips a budget of five steps on the sixth *)
  popped ~max_steps:5 ~events:5 (fun eng ->
      ignore
        (Engine.spawn eng "spinner" (fun () ->
             while true do
               Engine.yield ()
             done)))

let suite =
  [
    Alcotest.test_case "events fire at virtual times" `Quick test_virtual_time;
    Alcotest.test_case "fiber sleeps accumulate" `Quick test_fiber_sleep;
    Alcotest.test_case "ivar await/fill" `Quick test_ivar_basic;
    Alcotest.test_case "ivar wakes all waiters" `Quick test_ivar_multiple_waiters;
    Alcotest.test_case "ivar double fill raises" `Quick test_ivar_double_fill_raises;
    Alcotest.test_case "ivar timeout" `Quick test_ivar_timeout;
    Alcotest.test_case "ivar value beats deadline" `Quick test_ivar_timeout_beats_deadline;
    Alcotest.test_case "cancellation stops a fiber" `Quick test_cancellation;
    Alcotest.test_case "cancel before first step" `Quick test_cancelled_before_start;
    Alcotest.test_case "mailbox is FIFO" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox timeout keeps late message" `Quick
      test_mailbox_timeout_preserves_message;
    Alcotest.test_case "fiber exceptions recorded" `Quick test_errors_recorded;
    Alcotest.test_case "runs are deterministic" `Quick test_determinism;
    Alcotest.test_case "step budget guards livelock" `Quick test_deadlock_guard;
    Alcotest.test_case "Par.await_k waits for k-th completion" `Quick test_par_await_k;
    Alcotest.test_case "Par.await_k_timeout returns partial" `Quick
      test_par_await_k_timeout;
    Alcotest.test_case "crashed issuer unhooks await_k waiters" `Quick
      test_par_await_k_cancel_unhooks;
    Alcotest.test_case "crashed issuer unhooks timed quorum waiters" `Quick
      test_par_await_k_timeout_cancel_unhooks;
    Alcotest.test_case "dispose moves nothing readable" `Quick
      test_dispose_moves_nothing;
    Alcotest.test_case "schedule and sleep reject NaN delays" `Quick
      test_nan_delay_rejected;
    QCheck_alcotest.to_alcotest event_order;
    Alcotest.test_case "events popped are counted once, in the caller's scope"
      `Quick test_events_popped_per_run;
  ]
