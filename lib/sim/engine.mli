(** Deterministic discrete-event simulator with cooperative fibers.

    Virtual time is a [float] whose unit is one network delay — the paper's
    complexity metric (Section 3): a message costs 1.0, a memory operation
    costs 2.0 (request arrival at +1.0, response at +2.0).

    Fibers are blocking-style computations multiplexed over the event loop
    with OCaml effects.  Events run in [(time, insertion seq)] order, so
    runs are fully deterministic: events due at the current time wait
    on a FIFO lane, later ones on a heap. *)

(** Raised inside a fiber that has been {!cancel}led, at its next
    (attempted) resumption. *)
exception Cancelled

(** Raised by {!run} when the step budget is exhausted — almost always a
    livelock in the simulated protocol. *)
exception Deadlock of string

type t

type fiber

val create : ?max_steps:int -> ?seed:int -> unit -> t

(** One network delay, the unit of virtual time: a message takes one,
    and each leg of a memory operation takes one. *)
val delay : float

(** Current virtual time. *)
val now : t -> float

(** The engine's telemetry collector; its clock is virtual time.  All
    substrate layers built over this engine record their typed events,
    spans and metrics here. *)
val obs : t -> Rdma_obs.Obs.t

(** Seeded PRNG for simulated randomness; all determinism flows from the
    [seed] given to {!create}. *)
val rng : t -> Random.State.t

(** Number of events executed so far. *)
val steps : t -> int

(** Exceptions that escaped fibers, most recent first, as
    [(fiber name, exn)]. *)
val errors : t -> (string * exn) list

(** [schedule t delay f] runs [f] at virtual time [now t +. delay].
    Usable from inside or outside fibers.  Raises [Invalid_argument]
    unless [delay >= 0.], so a NaN delay never reaches the queues. *)
val schedule : t -> float -> (unit -> unit) -> unit

(** [spawn t name f] starts a new fiber.  [f] runs at the current virtual
    time (as a fresh event). *)
val spawn : t -> string -> (unit -> unit) -> fiber

(** Cancelling a fiber makes it stop taking steps forever: pending
    resumptions are discarded and the fiber is discontinued with
    {!Cancelled} at its next wake-up point.  This models a process
    crash. *)
val cancel : fiber -> unit

(** [on_cancel fiber hook] registers [hook] to run when the fiber is
    cancelled (immediately if it already is) and returns a
    deregistration closure.  Blocking combinators use it to tear down an
    abandoned wait — deregistering ivar callbacks so late completions
    (e.g. lagged ones under a weak ordering model) find no waiter.
    Hooks run in registration order and may resume the fiber (which
    discontinues it); a hook must guard its own settled state. *)
val on_cancel : fiber -> (unit -> unit) -> unit -> unit

(** Run the event loop until no events remain.  Raises {!Deadlock} if the
    step budget is exhausted. *)
val run : t -> unit

(** End a run whose results have been read: drop the queued events and
    discontinue, with {!Cancelled}, every fiber still suspended, so
    their stacks are freed.  The collector is muted first
    ({!Rdma_obs.Obs.mute}), the fibers' profiler frames stay detached
    and cancel hooks do not run, so no counter, sample, entry, step or
    time moves.  Nothing may run the engine afterwards. *)
val dispose : t -> unit

(** {2 Fiber-context operations}

    These may only be called from inside a fiber spawned by {!spawn}. *)

(** [suspend f] blocks the current fiber; [f engine self resume] must
    arrange for [resume] to be called (at most once) with the result.

    [@@sim.yields] below is the interface-level atomicity contract
    simlint's rule Y2 checks: a [val] carries it iff a fiber suspension
    is reachable from its implementation, so callers can see where
    shared state may change underneath them.  These three are the yield
    roots the whole-tree may-yield analysis is anchored at. *)
val suspend : (t -> fiber -> ('a -> unit) -> unit) -> 'a [@@sim.yields]

(** Block for [delay] units of virtual time.  Raises [Invalid_argument]
    unless [delay >= 0.]. *)
val sleep : float -> unit [@@sim.yields]

(** Re-enqueue the current fiber at the current time. *)
val yield : unit -> unit [@@sim.yields]
