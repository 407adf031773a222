(** Scoped work-attribution profiler with a two-plane design.

    The {b deterministic plane} is integer work counters (SHA-256
    blocks, HMAC evaluations, memory ops, messages, simulator events)
    attributed to the innermost open scope.  Scheduling is
    deterministic, so the plane is byte-identical across repeated runs
    of a seed and across [-j N]; it merges into an {!Obs.t} via
    {!Obs.absorb_prof} and may be baselined and diffed exactly
    (tools/perfdiff).

    The {b timing plane} is wall-clock self/total seconds per scope
    path, read from {!Prof_clock}.  It is reported — perf snapshots,
    flamegraphs — but never merged into an {!Obs.t}, never digested,
    never replayed.

    A profiler is installed per domain ({!with_profiler}); with none
    installed every hook is a no-op.  Scopes are fiber-aware: the
    engine detaches a suspending fiber's frames (pausing their wall
    timers) and re-attaches them on resume, so a scope opened inside a
    fiber attributes only that fiber's own execution. *)

type t

(** [create ()] uses {!Prof_clock.now}; tests inject a fake [clock]. *)
val create : ?clock:(unit -> float) -> unit -> t

(** Install [t] as this domain's profiler for the extent of [f]
    (restoring whatever was installed before, so installs nest). *)
val with_profiler : t -> (unit -> 'a) -> 'a

(** Mask any installed profiler for the extent of [f].  The task pool
    wraps inline task execution with this so [-j 1] attributes exactly
    like a fresh worker domain. *)
val without_profiler : (unit -> 'a) -> 'a

(** A work counter, resolved from its name once.  Sites declare
    [let c = Prof.counter "sha256.blocks"] at module level; two handles
    with the same name are the same counter. *)
type counter

val counter : string -> counter

(** [bump c n] adds [n] to [c] in the current scope of the installed
    profiler; no-op when none installed.  A bump of [0] still makes
    [c]'s row appear in {!totals} and {!by_scope}. *)
val bump : counter -> int -> unit

(** [scope name f] runs [f] under a scope frame named [name] on the
    installed profiler; no-op wrapper when none installed.  Scope names
    must not contain [';'] (the collapsed-stack separator). *)
val scope : string -> (unit -> 'a) -> 'a

(** {2 Fiber suspension support — engine use only} *)

(** A detached stack segment, paused and portable with a continuation. *)
type frames

(** Current scope-stack depth of the installed profiler (0 if none). *)
val depth : unit -> int

(** [detach_to base] detaches every frame above depth [base], pausing
    their wall timers; {!attach} resumes them.  The engine brackets
    fiber suspension with this pair. *)
val detach_to : int -> frames

val attach : frames -> unit

(** {2 Read-back — all lists sorted, so consumers are order-stable} *)

(** Deterministic plane: [(counter, total)] sorted by counter. *)
val totals : t -> (string * int) list

(** Deterministic plane per scope path: [(path, rows)] sorted by path,
    rows sorted by counter.  Counts bumped outside any scope appear
    under ["(root)"]. *)
val by_scope : t -> (string * (string * int) list) list

(** Timing plane: [(path, calls, total_s, self_s)] sorted by path.
    [total_s] includes nested scopes; [self_s] excludes them. *)
val timings : t -> (string * int * float * float) list

(** Inject an externally measured wall-clock row (e.g. a Bechamel
    estimate) into the timing plane. *)
val add_timing : t -> path:string -> calls:int -> total_s:float -> self_s:float -> unit
