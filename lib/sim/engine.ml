(* Deterministic discrete-event simulator with cooperative fibers.

   Virtual time is a float whose unit is one network delay (the paper's
   complexity metric, Section 3).  Fibers are implemented with OCaml 5
   effects: a fiber is ordinary blocking-style code; every blocking point
   performs the single [Suspend] effect, handing the engine a callback
   that will resume the fiber at a later virtual time.

   Crash injection works by cancelling a fiber: any later attempt to
   resume it discontinues the fiber with [Cancelled] instead, so the
   fiber "stops taking steps forever" exactly as the model prescribes.

   A run that ends leaves fibers suspended forever (a process waiting on
   a crashed memory, a server loop past quiescence).  OCaml never frees
   a continuation that is dropped without being resumed, so the engine
   keeps every parked continuation and [dispose] discontinues them once
   the run's results have been read. *)

exception Cancelled

exception Deadlock of string

type t = {
  mutable now : float;
  mutable seq : int;
  heap : (unit -> unit) Heap.t; (* events due after [now] *)
  lane : (unit -> unit) Queue.t; (* events due at [now], in schedule order *)
  mutable peak : int; (* most events ever queued at once, both queues *)
  mutable steps : int;
  max_steps : int;
  rng : Random.State.t;
  mutable next_fid : int;
  mutable errors : (string * exn) list;
  live : (int, fiber) Hashtbl.t; (* fid -> fiber, from first step to exit *)
  obs : Rdma_obs.Obs.t;
  (* Profiler scope-stack depth owned by the engine's caller: frames
     above it belong to the currently executing fiber and travel with
     it across suspension (see the Suspend handler and [run]). *)
  mutable prof_base : int;
}

and fiber = {
  fid : int;
  name : string;
  mutable cancelled : bool;
  owner : t;
  (* cleanup actions to run if the fiber is cancelled — registered by
     blocking combinators so an abandoned wait can deregister its ivar
     callbacks instead of leaking waiters (id, action) *)
  mutable cancel_hooks : (int * (unit -> unit)) list;
  mutable next_hook : int;
  mutable parked : parked;
}

(* A suspended fiber's continuation, held until its resume event runs. *)
and parked = Running | Parked : ('a, unit) Effect.Deep.continuation -> parked

type _ Effect.t +=
  | Suspend : (t -> fiber -> ('a -> unit) -> unit) -> 'a Effect.t

let create ?(max_steps = 20_000_000) ?(seed = 1) () =
  let t =
    {
      now = 0.;
      seq = 0;
      heap = Heap.create ~filler:ignore ();
      lane = Queue.create ();
      peak = 0;
      steps = 0;
      max_steps;
      rng = Random.State.make [| seed |];
      next_fid = 0;
      errors = [];
      live = Hashtbl.create 16;
      obs = Rdma_obs.Obs.create ();
      prof_base = 0;
    }
  in
  (* The telemetry clock is virtual time: every span and event recorded
     anywhere in the stack is keyed to the paper's delay metric. *)
  Rdma_obs.Obs.set_clock t.obs (fun () -> t.now);
  t

let delay = 1.0

let now t = t.now

let obs t = t.obs

let rng t = t.rng

let steps t = t.steps

let errors t = t.errors

let cancel f =
  if not f.cancelled then begin
    f.cancelled <- true;
    Rdma_obs.Obs.event f.owner.obs ~actor:f.name
      (Rdma_obs.Event.Fiber_cancel { fid = f.fid; name = f.name });
    (* run the registered cleanups in registration order; each may
       resume (hence discontinue) the fiber, so hooks guard their own
       settled state *)
    let hooks = List.rev f.cancel_hooks in
    f.cancel_hooks <- [];
    List.iter (fun (_, hook) -> hook ()) hooks
  end

(* [on_cancel fiber hook] runs [hook] if the fiber is ever cancelled
   (immediately when it already is) and returns a deregistration
   closure — call it once the guarded wait settles, so long-lived
   fibers don't accumulate dead hooks. *)
let on_cancel fiber hook =
  if fiber.cancelled then begin
    hook ();
    fun () -> ()
  end
  else begin
    fiber.next_hook <- fiber.next_hook + 1;
    let id = fiber.next_hook in
    fiber.cancel_hooks <- (id, hook) :: fiber.cancel_hooks;
    fun () ->
      fiber.cancel_hooks <-
        List.filter (fun (id', _) -> id' <> id) fiber.cancel_hooks
  end

let heap_pushes = Rdma_obs.Prof.counter "sim.heap.pushes"

let events_popped = Rdma_obs.Prof.counter "sim.events.popped"

(* An event due at [now] skips the heap: every event the heap holds
   for [now] was pushed before the clock reached [now], so before any
   event on the lane, and [run] drains those first.  Routing on the
   computed time, not on [delay = 0.], sends a delay too small to move
   the clock the same way.  [sim.heap.pushes] and the peak depth count
   both queues, so they read as if every event went through the heap. *)
let schedule t delay callback =
  if not (delay >= 0.) then invalid_arg "Engine.schedule: negative or NaN delay";
  Rdma_obs.Prof.bump heap_pushes 1;
  t.seq <- t.seq + 1;
  let time = t.now +. delay in
  if time = t.now then Queue.push callback t.lane
  else Heap.push t.heap ~time ~seq:t.seq callback;
  let depth = Heap.size t.heap + Queue.length t.lane in
  if depth > t.peak then t.peak <- depth

(* [resume_of t fiber ~saved k] wraps a continuation as a single-shot
   resume function that respects cancellation and runs as a scheduled
   event, preserving deterministic ordering.  [saved] is the fiber's
   detached profiler-frame segment: re-attached just before the
   continuation runs (also on the discontinue path, so the unwinding
   [Fun.protect]s close their frames), and left paused forever if the
   resume never fires — a cancelled fiber loses only the wall-time of
   its still-open frames, never deterministic counts.  [dispose]
   discontinues a never-resumed fiber without re-attaching them. *)
let resume_of t fiber ~saved k =
  let used = ref false in
  fun v ->
    if !used then invalid_arg "Engine: fiber resumed twice";
    used := true;
    schedule t 0. (fun () ->
        fiber.parked <- Running;
        Rdma_obs.Prof.attach saved;
        if fiber.cancelled then
          try Effect.Deep.discontinue k Cancelled with Cancelled -> ()
        else Effect.Deep.continue k v)

let handler t fiber =
  let retc () = () in
  let exnc = function
    | Cancelled -> ()
    | e -> t.errors <- (fiber.name, e) :: t.errors
  in
  let effc : type a. a Effect.t -> ((a, unit) Effect.Deep.continuation -> unit) option
      = function
    | Suspend f ->
        Some
          (fun k ->
            (* The fiber is suspending: detach its profiler frames (the
               ones above the dispatch-time base) so the counters and
               wall timers of other fibers never land in its scopes. *)
            let saved = Rdma_obs.Prof.detach_to t.prof_base in
            fiber.parked <- Parked k;
            f t fiber (resume_of t fiber ~saved k))
    | _ -> None
  in
  { Effect.Deep.retc; exnc; effc }

let spawn t name f =
  t.next_fid <- t.next_fid + 1;
  let fiber =
    {
      fid = t.next_fid;
      name;
      cancelled = false;
      owner = t;
      cancel_hooks = [];
      next_hook = 0;
      parked = Running;
    }
  in
  schedule t 0. (fun () ->
      if not fiber.cancelled then begin
        (* Recorded at first step, not at [spawn], so traces enabled
           between cluster construction and [run] still see it. *)
        Rdma_obs.Obs.event t.obs ~actor:name
          (Rdma_obs.Event.Fiber_spawn { fid = fiber.fid; name });
        Hashtbl.replace t.live fiber.fid fiber;
        Effect.Deep.match_with
          (fun () ->
            Fun.protect ~finally:(fun () -> Hashtbl.remove t.live fiber.fid) f)
          () (handler t fiber)
      end);
  fiber

(* Bump [sim.events.popped] by the events run since step [first]: the
   event that trips [Deadlock] is counted in [steps] but never runs. *)
let bump_popped t ~first =
  let ran = min t.steps t.max_steps - first in
  if ran > 0 then Rdma_obs.Prof.bump events_popped ran

(* Events run in (time, seq) order: the heap's while its least time is
   [now], then the lane's, then the heap's again (see [schedule]).

   Every payload starts and ends at the caller's profiler depth: a fiber
   detaches its frames when it suspends, and a scope a payload opens
   closes before it returns or raises.  So [run] reads that depth once,
   and bumps [sim.events.popped] once, in the caller's scope, by the
   events it ran — also when a payload raises. *)
let run t =
  let first = t.steps in
  (* Frames open here belong to the caller; anything a payload opens
     above this depth belongs to the fiber it runs. *)
  t.prof_base <- Rdma_obs.Prof.depth ();
  match
    while not (Heap.is_empty t.heap && Queue.is_empty t.lane) do
      let from_heap =
        Queue.is_empty t.lane
        || ((not (Heap.is_empty t.heap)) && Heap.min_time t.heap = t.now)
      in
      let time = if from_heap then Heap.min_time t.heap else t.now in
      let payload = if from_heap then Heap.pop t.heap else Queue.pop t.lane in
      t.steps <- t.steps + 1;
      if t.steps > t.max_steps then begin
        Rdma_obs.Obs.event t.obs ~actor:"engine"
          (Rdma_obs.Event.Deadlock { steps = t.steps });
        raise
          (Deadlock
             (Printf.sprintf "Engine: exceeded %d steps at time %.2f"
                t.max_steps t.now))
      end;
      t.now <- time;
      payload ()
    done
  with
  | () ->
      bump_popped t ~first;
      Rdma_obs.Obs.gauge t.obs "sim.heap.peak_depth" (float_of_int t.peak)
  | exception e ->
      bump_popped t ~first;
      raise e

(* End the run: drop the queued events and discontinue every parked
   fiber, in fid order, so their stacks are freed.  Everything a caller
   reads afterwards stays as the run left it: the collector is muted,
   so the [with_span]s that unwind record no sample; the fibers' profiler
   frames stay detached, so the unwinding scopes find nothing to close;
   and cancel hooks do not run, because the whole cluster is garbage. *)
let dispose t =
  Heap.clear t.heap;
  Queue.clear t.lane;
  Rdma_obs.Obs.mute t.obs;
  Hashtbl.fold (fun _ fiber acc -> fiber :: acc) t.live []
  |> List.sort (fun a b -> Int.compare a.fid b.fid)
  |> List.iter (fun fiber ->
         match fiber.parked with
         | Running -> ()
         | Parked k -> (
             fiber.parked <- Running;
             try Effect.Deep.discontinue k Cancelled with Cancelled -> ()))

let suspend f = Effect.perform (Suspend f)

let sleep delay =
  if not (delay >= 0.) then invalid_arg "Engine.sleep: negative or NaN delay";
  suspend (fun t _fiber resume -> schedule t delay (fun () -> resume ()))

let yield () = sleep 0.
