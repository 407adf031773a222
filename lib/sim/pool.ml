(* Fixed-size domain pool with a seed-ordered deterministic fold.

   [fold ~jobs tasks ~init ~f] executes every task and folds the
   results with [f] in SUBMISSION order, regardless of completion
   order, so [-j 1] and [-j N] are byte-identical for any consumer.
   [run_exn] is a fold into a list.

   Memory is O(jobs), not O(tasks): the calling domain pulls [tasks]
   lazily and hands a task to the workers only while its index is below
   [folded + 2 * workers], where [folded] counts the results [f] has
   finished with.  A result therefore waits in a window of [2 * workers]
   slots until its turn, and a batch of any length holds at most that
   many tasks and results at once.  Workers claim tasks in submission
   order, pulling each from [tasks] under the pool's lock; the calling
   domain waits for the result at the head of the window and folds it.
   One mutex guards the window and one condition variable signals every
   change.

   Determinism argument:
   - each task is a pure function of its own seed and captured config
     (see Task); nothing a worker observes — its domain id, the claim
     order, timing — flows into a task's inputs;
   - results are folded in submission-index order, so the fold is
     [f (f init r0) r1 ...] no matter which domain computed what;
   - exceptions are captured per task into its result rather than
     tearing down the pool, so a failing task cannot reorder or starve
     the others.

   The engine itself stays single-domain: one simulation = one task =
   one domain at a time.  The pool never hands two domains the same
   engine, and collectors ([Obs.t]) stay confined to the domain that
   created them until the task returns. *)

type error = { task_label : string; task_seed : int; exn : exn }

(* One domain is the coordinator; leave the rest to workers.  At least
   1 so the pool degrades to sequential on single-core machines. *)
let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* OCaml caps live domains (128 by default); clamp well below it so a
   misconfigured -j or an accidentally nested pool cannot trip the
   runtime limit. *)
let max_workers = 64

(* Tasks never inherit the caller's ambient profiler: a worker domain
   starts with none installed, so the sequential path masks it too —
   otherwise [-j 1] would attribute pooled work to the submitting
   domain's scopes and [-j N] would not, breaking the byte-identical
   contract.  A task that wants profiling installs its own. *)
let run_task task =
  match Rdma_obs.Prof.without_profiler (fun () -> Task.apply task) with
  | r -> Ok r
  | exception exn ->
      Error { task_label = Task.label task; task_seed = Task.seed task; exn }

(* The first [k] tasks as a list, and the rest of the sequence. *)
let take k tasks =
  let rec go k acc tasks =
    if k = 0 then (List.rev acc, tasks)
    else
      match tasks () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (task, rest) -> go (k - 1) (task :: acc) rest
  in
  go k [] tasks

let fold_parallel ~workers tasks ~init ~f =
  let window = 2 * workers in
  let lock = Mutex.create () and changed = Condition.create () in
  (* Result i waits in slot [i mod window] until it is folded. *)
  let results = Array.make window None in
  let tasks = ref tasks and claimed = ref 0 and folded = ref 0 in
  let exhausted = ref false and stopped = ref false in
  let locked g =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) g
  in
  (* Under the lock: the next task and its index, once the window has
     room for it. *)
  let rec claim () =
    if !stopped || !exhausted then None
    else if !claimed >= !folded + window then begin
      Condition.wait changed lock;
      claim ()
    end
    else
      match !tasks () with
      | Seq.Nil ->
          exhausted := true;
          Condition.broadcast changed;
          None
      | Seq.Cons (task, rest) ->
          tasks := rest;
          let i = !claimed in
          incr claimed;
          Some (i, task)
  in
  let rec work () =
    match locked claim with
    | None -> ()
    | Some (i, task) ->
        let r = run_task task in
        locked (fun () ->
            results.(i mod window) <- Some r;
            Condition.broadcast changed);
        work ()
  in
  let domains = Array.init workers (fun _ -> Domain.spawn work) in
  (* Under the lock: the next result in submission order, or [None]
     once every task has been folded. *)
  let rec next () =
    match results.(!folded mod window) with
    | Some r ->
        results.(!folded mod window) <- None;
        Some r
    | None when !exhausted && !folded = !claimed -> None
    | None ->
        Condition.wait changed lock;
        next ()
  in
  let rec drain acc =
    match locked next with
    | None -> acc
    | Some r ->
        let acc = f acc r in
        locked (fun () ->
            incr folded;
            Condition.broadcast changed);
        drain acc
  in
  match drain init with
  | acc ->
      Array.iter Domain.join domains;
      acc
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      locked (fun () ->
          stopped := true;
          Condition.broadcast changed);
      Array.iter Domain.join domains;
      Printexc.raise_with_backtrace e bt

let fold ?jobs tasks ~init ~f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  (* A short sequence gets no more workers than it has tasks. *)
  let head, rest = take (min jobs max_workers) tasks in
  let tasks = Seq.append (List.to_seq head) rest in
  match head with
  | [] | [ _ ] ->
      (* Sequential fast path: same fold order by construction. *)
      Seq.fold_left (fun acc task -> f acc (run_task task)) init tasks
  | _ -> fold_parallel ~workers:(List.length head) tasks ~init ~f

(* All-or-nothing variant: re-raise the first (submission-order) task
   failure.  Harness drivers use this when a task exception means a
   bug in the harness itself, not a property of the simulated run. *)
let run_exn ?jobs tasks =
  List.rev
    (fold ?jobs (List.to_seq tasks) ~init:[] ~f:(fun acc -> function
       | Ok r -> r :: acc
       | Error e -> raise e.exn))
