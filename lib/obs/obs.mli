(** The telemetry collector: typed events, nested spans keyed to virtual
    time, and streaming metrics (histograms + counters).

    Metrics and subscriber notification are always on (O(1), bounded
    memory); retention of the raw event/span stream for the exporters is
    opt-in via {!set_recording}.  All timestamps come from the installed
    clock — the simulation engine's virtual time — so a fixed seed yields
    byte-identical exports. *)

type t

(** A (possibly still open) span.  Spans nest naturally: whatever spans a
    fiber opens and closes in LIFO order render as a flame stack over
    virtual time. *)
type span

val create : ?recording:bool -> unit -> t

(** Install the time source (the engine does this at creation). *)
val set_clock : t -> (unit -> float) -> unit

val now : t -> float

val recording : t -> bool

(** Toggle retention of the raw event/span stream. *)
val set_recording : t -> bool -> unit

(** Register a typed tap called on every event regardless of recording
    (e.g. the chaos oracle watches decisions and memory restarts). *)
val subscribe : t -> (at:float -> actor:string -> Event.t -> unit) -> unit

(** Register a tap called at every span open, regardless of recording.
    Protocol phases open spans under [~cat:"phase"], so a span tap sees
    phase boundaries the moment they happen — the chaos adversary uses
    this to fire faults at observed protocol state rather than at blind
    times. *)
val subscribe_spans : t -> (span -> unit) -> unit

(** Record an instant event attributed to [actor] at the current virtual
    time. *)
val event : t -> actor:string -> Event.t -> unit

(** Add one sample to the named histogram (created on first use under
    [cat], default ["metric"]). *)
val observe : t -> ?cat:string -> string -> float -> unit

(** Add [n] to a named counter. *)
val count : t -> string -> int -> unit

(** A named counter's value (0 if it was never counted). *)
val counter : t -> string -> int

(** A named counter's storage, created at 0 if absent.  Hot paths
    resolve it once and [incr] it per event instead of paying a string
    lookup per {!count}. *)
val cell : t -> string -> int ref

(** [gauge t name v] records a high-watermark gauge: the stored value
    is the max of everything set (e.g. peak event-heap depth).  Max is
    the only combination that merges associatively, so per-task peaks
    merged in any grouping yield the batch peak. *)
val gauge : t -> string -> float -> unit

(** [merge ~into src] folds [src]'s metrics (histograms, counters and
    gauges) into [into], visiting names in sorted order so the fold is
    order-stable: merging per-task collectors in submission order
    yields the same aggregate regardless of which domain produced
    which collector.  The raw event/span stream, clock, and
    subscribers of [src] are not merged — they stay confined to the
    domain that recorded them. *)
val merge : into:t -> t -> unit

(** Open a span at the current virtual time.  [cat] defaults to
    ["span"]; protocol phases use [~cat:"phase"] so reports can single
    them out. *)
val span : t -> actor:string -> ?cat:string -> string -> span

(** Close a span: records its duration into the histogram named after the
    span.  Idempotent (first close wins). *)
val finish : t -> span -> unit

(** [with_span t ~actor name f] wraps [f] in a span, closing it on normal
    return, exception, or fiber cancellation.  Also enters a {!Prof}
    scope of the same name on the installed profiler (if any), so every
    span-wrapped region doubles as a work-attribution scope. *)
val with_span : t -> actor:string -> ?cat:string -> string -> (unit -> 'a) -> 'a

val span_name : span -> string

val span_actor : span -> string

val span_cat : span -> string

val span_id : span -> int

val span_start : span -> float

val span_stop : span -> float option

val span_duration : span -> float option

type entry = Ev of { at : float; actor : string; ev : Event.t } | Sp of span

(** The raw retained stream, chronological: events at their record time,
    spans at their start time. *)
val entries : t -> entry list

(** Recorded events in chronological order, as [(at, actor, event)]. *)
val events : t -> (float * string * Event.t) list

(** Recorded spans in start order. *)
val spans : t -> span list

(** Number of retained entries (events + spans). *)
val entry_count : t -> int

(** All histograms as [(name, cat, hist)], sorted by name. *)
val histograms : t -> (string * string * Hist.t) list

(** Histogram summaries sorted by name, optionally restricted to one
    category (e.g. [~cat:"phase"] for the per-phase report breakdown). *)
val summaries : ?cat:string -> t -> (string * Hist.summary) list

(** Named counters, sorted. *)
val counters : t -> (string * int) list

(** High-watermark gauges, sorted. *)
val gauges : t -> (string * float) list

(** Fold a profiler's deterministic plane into [t] as [prof.]-prefixed
    counters.  The timing plane has no path into a collector: merged
    metrics feed digests and replay artifacts, and wall-clock must
    never reach either. *)
val absorb_prof : t -> Prof.t -> unit

(** Drop retained entries; metrics and counters are kept. *)
val clear_entries : t -> unit
