(* The telemetry collector: structured events, nested spans keyed to
   virtual time, and streaming metrics.

   One collector is shared by every layer of a simulated cluster (the
   engine owns it).  Three concerns, with different costs:

   - Metrics (histograms over span durations + named counters + gauges)
     are always on: they are O(1) per observation and bounded in size.
     They are the run's only table of counts: [Report.t]'s messages,
     memory operations, signatures and named counters are read from
     here.
   - Subscribers (typed callbacks) are always notified; the chaos
     oracle and the SMR rejoin server react to events this way.
   - Event/span *retention* (for the exporters and the CLI's [--trace]
     listing) is opt-in via [set_recording]: a long stress run would
     otherwise accumulate millions of entries.

   Timestamps come from the installed clock — the simulation engine's
   virtual [now] — so recorded data is deterministic for a fixed seed. *)

type span = {
  span_id : int;
  span_actor : string;
  span_name : string;
  span_cat : string;
  span_start : float;
  mutable span_stop : float option;
}

type entry = Ev of { at : float; actor : string; ev : Event.t } | Sp of span

type t = {
  mutable clock : unit -> float;
  mutable recording : bool;
  mutable entries : entry list; (* reverse chronological insertion order *)
  mutable entry_count : int;
  mutable next_span_id : int;
  mutable subscribers : (at:float -> actor:string -> Event.t -> unit) list;
  mutable span_subscribers : (span -> unit) list;
  hists : (string, string * Hist.t) Hashtbl.t; (* name -> (cat, hist) *)
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t; (* name -> high watermark *)
}

let create ?(recording = false) () =
  {
    clock = (fun () -> 0.);
    recording;
    entries = [];
    entry_count = 0;
    next_span_id = 0;
    subscribers = [];
    span_subscribers = [];
    hists = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
  }

let set_clock t clock = t.clock <- clock

let now t = t.clock ()

let recording t = t.recording

let set_recording t flag = t.recording <- flag

let subscribe t f = t.subscribers <- f :: t.subscribers

let subscribe_spans t f = t.span_subscribers <- f :: t.span_subscribers

let push t entry =
  t.entries <- entry :: t.entries;
  t.entry_count <- t.entry_count + 1

(* {2 Events} *)

let event t ~actor ev =
  let at = t.clock () in
  List.iter (fun f -> f ~at ~actor ev) t.subscribers;
  if t.recording then push t (Ev { at; actor; ev })

(* {2 Metrics} *)

let hist_for t ~cat name =
  match Hashtbl.find_opt t.hists name with
  | Some (_, h) -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.add t.hists name (cat, h);
      h

let observe t ?(cat = "metric") name v = Hist.add (hist_for t ~cat name) v

(* A counter's own storage, so a hot path (one bump per message or
   memory operation) pays the string lookup once, at creation, and a
   plain increment afterwards. *)
let cell t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let count t name n =
  let r = cell t name in
  r := !r + n

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

(* Gauges are high watermarks: [gauge] keeps the max of everything set,
   which is the only combination that also merges associatively —
   merging per-task peaks in any grouping yields the batch peak. *)
let gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> if v > !r then r := v
  | None -> Hashtbl.add t.gauges name (ref v)

(* Merge is METRICS-ONLY and an explicit, order-stable fold: src's
   histograms and counters are folded into [into] in sorted-name order,
   so merging N collectors in submission order yields one deterministic
   aggregate no matter which domain produced which collector.  The raw
   entry stream (events/spans), clock, and subscribers are deliberately
   NOT merged: those stay confined to the domain that recorded them,
   and exporting them is a per-task concern (tasks return rendered
   export blobs instead of live collectors). *)
let merge ~into src =
  Hashtbl.fold (fun name (cat, h) acc -> (name, cat, h) :: acc) src.hists []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  |> List.iter (fun (name, cat, h) -> Hist.merge ~into:(hist_for into ~cat name) h);
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) src.counters []
  |> List.sort compare
  |> List.iter (fun (name, n) -> count into name n);
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) src.gauges []
  |> List.sort compare
  |> List.iter (fun (name, v) -> gauge into name v)

(* {2 Spans} *)

let span t ~actor ?(cat = "span") name =
  t.next_span_id <- t.next_span_id + 1;
  let sp =
    {
      span_id = t.next_span_id;
      span_actor = actor;
      span_name = name;
      span_cat = cat;
      span_start = t.clock ();
      span_stop = None;
    }
  in
  if t.recording then push t (Sp sp);
  List.iter (fun f -> f sp) t.span_subscribers;
  sp

let finish t sp =
  match sp.span_stop with
  | Some _ -> () (* already finished; keep first-close semantics *)
  | None ->
      let stop = t.clock () in
      sp.span_stop <- Some stop;
      Hist.add (hist_for t ~cat:sp.span_cat sp.span_name) (stop -. sp.span_start)

(* [with_span] also enters a profiler scope of the same name, so every
   span-wrapped region — protocol phases, rdma quorum ops — doubles as
   a work-attribution scope for free.  Safe across suspension: the
   engine detaches/re-attaches profiler frames around fiber suspension,
   and [with_span] bodies close in LIFO order per fiber.  (The raw
   [span]/[finish] pair is NOT hooked: callers like [Memory.operation]
   close those spans from a different fiber.) *)
let with_span t ~actor ?cat name f =
  let sp = span t ~actor ?cat name in
  Prof.scope name (fun () -> Fun.protect ~finally:(fun () -> finish t sp) f)

let span_name sp = sp.span_name

let span_actor sp = sp.span_actor

let span_cat sp = sp.span_cat

let span_id sp = sp.span_id

let span_start sp = sp.span_start

let span_stop sp = sp.span_stop

let span_duration sp =
  match sp.span_stop with Some stop -> Some (stop -. sp.span_start) | None -> None

(* {2 Read-back} *)

let entries t = List.rev t.entries

let entry_count t = t.entry_count

let events t =
  List.filter_map
    (function Ev { at; actor; ev } -> Some (at, actor, ev) | Sp _ -> None)
    (entries t)

let spans t =
  List.filter_map (function Sp sp -> Some sp | Ev _ -> None) (entries t)

let histograms t =
  Hashtbl.fold (fun name (cat, h) acc -> (name, cat, h) :: acc) t.hists []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let summaries ?cat t =
  histograms t
  |> List.filter_map (fun (name, c, h) ->
         match cat with
         | Some wanted when wanted <> c -> None
         | _ -> Some (name, Hist.summary h))

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort compare

let gauges t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.gauges []
  |> List.sort compare

(* Fold a profiler's DETERMINISTIC plane into the collector as
   [prof.]-prefixed counters (sorted, so insertion is order-stable).
   The timing plane deliberately has no path into an [Obs.t]: merged
   metrics feed digests and replay artifacts, and wall-clock must never
   reach either. *)
let absorb_prof t prof =
  List.iter (fun (name, n) -> count t ("prof." ^ name) n) (Prof.totals prof)

(* Drop retained entries (metrics and counters are kept). *)
let clear_entries t =
  t.entries <- [];
  t.entry_count <- 0
