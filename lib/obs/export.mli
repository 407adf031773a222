(** Deterministic exporters over a collector's retained stream and
    metrics: Chrome [trace_event] JSON (chrome://tracing / Perfetto),
    line-oriented JSONL, and a metrics summary document. *)

(** Chrome trace_event document: actors as tracks, spans as "X" duration
    events, instant events as "i".  One virtual delay = 1000 trace µs. *)
val chrome : Obs.t -> string

(** One JSON object per line per entry. *)
val jsonl : Obs.t -> string

(** Histogram summaries (count/sum/min/max/p50/p90/p99), counters and
    gauges. *)
val metrics : Obs.t -> string

(** One profiler as a versioned snapshot document: the deterministic
    plane (counters + per-scope attribution, byte-stable for a seed,
    diffed exactly) and the timing plane (wall-clock seconds, diffed
    with noise thresholds).  [wall_clock] marks snapshots of wall-clock
    experiments whose deterministic plane is intentionally empty. *)
val perf_snapshot_json : ?wall_clock:bool -> id:string -> Prof.t -> Json.t

val perf_snapshot : ?wall_clock:bool -> id:string -> Prof.t -> string

(** Collapsed-stack rendering of the deterministic [sim.events.popped]
    counter: one [path weight] line per scope, the input format of
    flamegraph.pl / speedscope. *)
val flamegraph : Prof.t -> string

(** Render the trace that {!write_trace} would write to [file]: a
    [.jsonl] suffix selects the JSONL exporter, anything else the
    Chrome format.  Pooled tasks use this to return export blobs as
    plain strings. *)
val render_trace : Obs.t -> file:string -> string

(** Write the trace to [file]; a [.jsonl] suffix selects the JSONL
    exporter, anything else the Chrome format. *)
val write_trace : Obs.t -> file:string -> unit

val write_metrics : Obs.t -> file:string -> unit

(** Structurally validate an exported Chrome trace; [Ok (events, tracks)]
    on success. *)
val validate_chrome : string -> (int * int, string) result
