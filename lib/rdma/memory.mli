(** A simulated shared-memory node (one µ_i of Section 3): registers
    grouped into regions, permissions checked at the memory, crash
    failures that make operations hang forever.

    Beyond the paper's crash-stop memories, a crashed memory can
    {!restart} under a fresh {e epoch}, coming back empty: register
    contents and legalChange-granted permissions are lost, and each
    region gets back the permission it was created with.  Registers are
    epoch-stamped: a stale (lost) register naks reads until a
    current-epoch write repairs it, so an amnesiac replica answers "I
    don't know" rather than serving lost state as ⊥.

    Timing follows the paper's delay metric: an operation issued at time
    [t] applies at the memory one {!Rdma_sim.Engine.delay} later and its
    response arrives two delays after issue — under the default
    {!Ordering.Strict} model.
    The weaker models ({!Ordering.Completion_lag},
    {!Ordering.Reorder_qp}) decouple apply from completion per the mode
    semantics in {!Ordering}; {!fence_async} is the explicit flush. *)

open Rdma_sim

type op_result = Ack | Nak

type read_result = Read of string option | Read_nak

type t

(** A memory starts under {!Ordering.Strict}; {!set_ordering} installs
    a weak mode.  [seed] keys the per-memory stream the weak modes draw
    their per-op lag/reorder decisions from — pass the run's seed so
    chaos schedules replay to identical decisions. *)
val create :
  ?legal_change:Permission.legal_change ->
  ?seed:int ->
  engine:Engine.t ->
  mid:int ->
  unit ->
  t

val id : t -> int

val ordering : t -> Ordering.mode

(** Install an ordering model; meant for schedule install time (t = 0) —
    the per-op decision stream is shared across modes, so switching
    mid-run is deterministic but changes subsequent draws. *)
val set_ordering : t -> Ordering.mode -> unit

(** The engine's telemetry collector (every operation records a typed
    event on this memory's [mu<mid>] track and a [mem.*] span, and
    counts one [mem.ops]; a {!restart} counts one [mem.restarts]). *)
val obs : t -> Rdma_obs.Obs.t

(** Crash the memory: every outstanding and future operation hangs. *)
val crash : t -> unit

val is_crashed : t -> bool

(** The current epoch: 0 at creation, incremented by each {!restart}. *)
val epoch : t -> int

(** Restart a crashed memory under a fresh epoch.  All register contents
    are lost (stale until rewritten) and in-flight pre-crash operations
    are dropped for good.  The trusted kernel restores each region's
    creation-time permission, as a NIC driver re-registers configured
    regions on reboot, so a grant made through {!change_permission_async}
    before the crash is forgotten.  Raises [Invalid_argument] if the
    memory is not crashed. *)
val restart : t -> unit

(** [add_region t ~name ~perm ~registers] creates a region.  Each register
    may belong to only one region (the convention our algorithms use);
    registers are initialized to ⊥ ([None]). *)
val add_region :
  t -> name:string -> perm:Permission.t -> registers:string list -> unit

(** [add_region_family t ~name ~perm ~member ~registers] creates a region
    whose registers are the names [member] accepts, without laying any
    of them out: a register's cell is created the first time an
    operation names it, holding ⊥ stamped with the epoch the region was
    added in — the cell {!add_region} would have created, and what a
    {!restart} leaves of it while it is unwritten.  Every operation and
    inspection answers as for [add_region] over the same names.
    [registers] must enumerate exactly the names [member] accepts; only
    {!stale_registers} forces it.  No member may be a register of
    another region (not checked). *)
val add_region_family :
  t ->
  name:string ->
  perm:Permission.t ->
  member:(string -> bool) ->
  registers:string list Lazy.t ->
  unit

(** Zero-delay inspection, for tests and traces only. *)
val peek_register : t -> string -> string option

(** The region's registers still awaiting repair (sorted).  Empty means
    the region is fully re-replicated.  Zero-delay; for tests and the
    chaos oracle. *)
val stale_registers : t -> region:string -> string list

val region_perm : t -> string -> Permission.t option

val region_names : t -> string list

(** Kernel-side permission override, bypassing [legal_change] (the Verbs
    facade models the trusted kernel of Section 7).  Untrusted programs
    must use {!change_permission_async}. *)
val force_permission : t -> region:string -> perm:Permission.t -> unit

(** Timed write; the ivar fills with the result two delays later
    (never, if the memory crashes).  A successful write stamps the
    register with the current epoch, repairing it if it was stale. *)
val write_async :
  t -> from:int -> region:string -> reg:string -> string -> op_result Ivar.t

val read_async : t -> from:int -> region:string -> reg:string -> read_result Ivar.t

type read_many_result = Read_many of string option array | Read_many_nak

(** Batched read of several registers of one region in a single timed
    operation — an RDMA read of a contiguous slot array (Section 7).
    Naks if any requested register is stale. *)
val read_many_async :
  t -> from:int -> region:string -> regs:string list -> read_many_result Ivar.t

(** Batched write of several registers of one region in one timed
    operation ([None] stores ⊥).  Stamps every named register with the
    current epoch — the snapshot-installation / state-transfer
    primitive. *)
val write_many_async :
  t ->
  from:int ->
  region:string ->
  values:(string * string option) list ->
  op_result Ivar.t

(** [changePermission]: the memory evaluates its [legal_change] policy on
    arrival; [Nak] means the request was refused and nothing changed. *)
val change_permission_async :
  t -> from:int -> region:string -> perm:Permission.t -> op_result Ivar.t

(** Explicit flush (the RDMA FLUSH / read-after-write fence): the
    returned ivar fills with [Ack] only once every operation [from]
    issued to this memory {e before} the fence has been applied, and
    later ops of the QP cannot overtake it.  Under {!Ordering.Strict}
    this is a free no-op (an already-full ivar, no event, no delay), so
    algorithms fence unconditionally at no strict-mode cost. *)
val fence_async : t -> from:int -> op_result Ivar.t
