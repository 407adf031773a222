(* Trace and metrics exporters.

   Two trace formats over the same retained stream:

   - Chrome [trace_event] JSON, loadable in chrome://tracing or Perfetto:
     every actor (p0, mu1, ...) becomes a track (tid), spans become "X"
     complete events, instant events become "i" events.  Virtual time is
     scaled so one network delay = 1000 trace microseconds, which renders
     readably in either viewer.
   - JSONL: one self-describing JSON object per line, for ad-hoc jq/awk
     analysis.

   Everything is emitted in deterministic order (insertion order for the
   stream, sorted names for metrics), so identical seeded runs produce
   byte-identical files. *)

(* One virtual delay unit -> 1000 Chrome-trace microseconds. *)
let ts_scale = 1000.

let ts_of at = Json.Int (int_of_float (Float.round (at *. ts_scale)))

(* Actor -> track id, in order of first appearance in the stream. *)
let actor_table entries =
  let tids = Hashtbl.create 16 in
  let order = ref [] in
  let see actor =
    if not (Hashtbl.mem tids actor) then begin
      Hashtbl.add tids actor (Hashtbl.length tids);
      order := actor :: !order
    end
  in
  List.iter
    (function
      | Obs.Ev { actor; _ } -> see actor
      | Obs.Sp sp -> see (Obs.span_actor sp))
    entries;
  (tids, List.rev !order)

let chrome_json obs =
  let entries = Obs.entries obs in
  let tids, actors = actor_table entries in
  let tid actor = Hashtbl.find tids actor in
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Int 0);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "rdma-sim") ]);
      ]
    :: List.concat_map
         (fun actor ->
           [
             Json.Obj
               [
                 ("name", Json.String "thread_name");
                 ("ph", Json.String "M");
                 ("pid", Json.Int 0);
                 ("tid", Json.Int (tid actor));
                 ("args", Json.Obj [ ("name", Json.String actor) ]);
               ];
             Json.Obj
               [
                 ("name", Json.String "thread_sort_index");
                 ("ph", Json.String "M");
                 ("pid", Json.Int 0);
                 ("tid", Json.Int (tid actor));
                 ("args", Json.Obj [ ("sort_index", Json.Int (tid actor)) ]);
               ];
           ])
         actors
  in
  let entry_json = function
    | Obs.Ev { at; actor; ev } ->
        Json.Obj
          [
            ("name", Json.String (Event.name ev));
            ("cat", Json.String (Event.cat ev));
            ("ph", Json.String "i");
            ("s", Json.String "t");
            ("ts", ts_of at);
            ("pid", Json.Int 0);
            ("tid", Json.Int (tid actor));
            ("args", Json.Obj (Event.fields ev));
          ]
    | Obs.Sp sp ->
        let start = Obs.span_start sp in
        let dur, extra =
          match Obs.span_stop sp with
          | Some stop -> (stop -. start, [])
          | None -> (0., [ ("unfinished", Json.Bool true) ])
        in
        Json.Obj
          [
            ("name", Json.String (Obs.span_name sp));
            ("cat", Json.String (Obs.span_cat sp));
            ("ph", Json.String "X");
            ("ts", ts_of start);
            ("dur", Json.Int (int_of_float (Float.round (dur *. ts_scale))));
            ("pid", Json.Int 0);
            ("tid", Json.Int (tid (Obs.span_actor sp)));
            ("args", Json.Obj (("id", Json.Int (Obs.span_id sp)) :: extra));
          ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ List.map entry_json entries));
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.String "virtual");
            ("scale", Json.String "1 network delay = 1000us");
          ] );
    ]

let chrome obs = Json.to_string (chrome_json obs)

let jsonl obs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun entry ->
      let line =
        match entry with
        | Obs.Ev { at; actor; ev } ->
            Json.Obj
              (("at", Json.Float at)
              :: ("actor", Json.String actor)
              :: ("kind", Json.String "event")
              :: ("type", Json.String (Event.name ev))
              :: ("cat", Json.String (Event.cat ev))
              :: Event.fields ev)
        | Obs.Sp sp ->
            Json.Obj
              ([
                 ("at", Json.Float (Obs.span_start sp));
                 ("actor", Json.String (Obs.span_actor sp));
                 ("kind", Json.String "span");
                 ("name", Json.String (Obs.span_name sp));
                 ("cat", Json.String (Obs.span_cat sp));
               ]
              @
              match Obs.span_duration sp with
              | Some d -> [ ("dur", Json.Float d) ]
              | None -> [ ("unfinished", Json.Bool true) ])
      in
      Buffer.add_string buf (Json.to_string line);
      Buffer.add_char buf '\n')
    (Obs.entries obs);
  Buffer.contents buf

let metrics_json obs =
  let histograms =
    Obs.histograms obs
    |> List.map (fun (name, cat, h) ->
           let s = Hist.summary h in
           ( name,
             Json.Obj
               [
                 ("cat", Json.String cat);
                 ("count", Json.Int s.Hist.count);
                 ("sum", Json.Float s.Hist.sum);
                 ("min", Json.Float s.Hist.min);
                 ("max", Json.Float s.Hist.max);
                 ("p50", Json.Float s.Hist.p50);
                 ("p90", Json.Float s.Hist.p90);
                 ("p99", Json.Float s.Hist.p99);
               ] ))
  in
  let counters =
    Obs.counters obs |> List.map (fun (name, v) -> (name, Json.Int v))
  in
  let gauges =
    Obs.gauges obs |> List.map (fun (name, v) -> (name, Json.Float v))
  in
  Json.Obj
    [
      ("histograms", Json.Obj histograms);
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
    ]

let metrics obs = Json.to_string (metrics_json obs)

(* {2 Perf snapshots (the profiler's two planes, one document)}

   Versioned so tools/perfdiff can refuse to compare incompatible
   shapes.  The deterministic plane (counters, per-scope attribution)
   is byte-stable for a seed and diffed exactly; the timing plane
   (wall-clock seconds) varies run to run and is diffed with noise
   thresholds, or ignored.  [wall_clock] marks snapshots of
   wall-clock-only experiments (Bechamel rows, empty deterministic
   plane). *)

let perf_snapshot_version = 1

let perf_snapshot_json ?(wall_clock = false) ~id prof =
  let counters =
    Prof.totals prof |> List.map (fun (name, n) -> (name, Json.Int n))
  in
  let scopes =
    Prof.by_scope prof
    |> List.map (fun (path, row) ->
           (path, Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) row)))
  in
  let timing_scopes =
    Prof.timings prof
    |> List.map (fun (path, calls, total_s, self_s) ->
           ( path,
             Json.Obj
               [
                 ("calls", Json.Int calls);
                 ("total_s", Json.Float total_s);
                 ("self_s", Json.Float self_s);
               ] ))
  in
  Json.Obj
    [
      ("version", Json.Int perf_snapshot_version);
      ("id", Json.String id);
      ("wall_clock", Json.Bool wall_clock);
      ( "deterministic",
        Json.Obj
          [ ("counters", Json.Obj counters); ("scopes", Json.Obj scopes) ] );
      ( "timing",
        Json.Obj
          [ ("clock", Json.String "wall"); ("scopes", Json.Obj timing_scopes) ]
      );
    ]

let perf_snapshot ?wall_clock ~id prof =
  Json.to_string (perf_snapshot_json ?wall_clock ~id prof)

(* Collapsed-stack rendering of the deterministic [sim.events.popped]
   counter: one line per scope path, [frame;frame;frame weight], the
   input format of flamegraph.pl / speedscope / inferno.  Weights are
   the per-scope (self) attribution, which is exactly what a flamegraph
   expects. *)
let flamegraph prof =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (path, row) ->
      match List.assoc_opt "sim.events.popped" row with
      | Some n when n > 0 ->
          Buffer.add_string buf path;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int n);
          Buffer.add_char buf '\n'
      | _ -> ())
    (Prof.by_scope prof);
  Buffer.contents buf

let write_string ~file s =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* [.jsonl] selects the line-oriented exporter; anything else gets the
   Chrome trace_event document.  [render_trace] exposes the same
   format choice as a pure string so pooled tasks can render their
   export blob inside the worker domain and let the submitting domain
   do the file write. *)
let render_trace obs ~file =
  if Filename.check_suffix file ".jsonl" then jsonl obs else chrome obs

let write_trace obs ~file = write_string ~file (render_trace obs ~file)

let write_metrics obs ~file = write_string ~file (metrics obs)

(* Structural validation of an exported Chrome trace: used by tests and
   the CLI's validate-trace command.  Returns (events, tracks). *)
let validate_chrome (s : string) : (int * int, string) result =
  match Json.parse s with
  | Error e -> Error (Printf.sprintf "not valid JSON: %s" e)
  | Ok json -> (
      match Json.member "traceEvents" json with
      | None -> Error "missing traceEvents"
      | Some te -> (
          match Json.to_list te with
          | None -> Error "traceEvents is not an array"
          | Some items -> (
              let tids = Hashtbl.create 8 in
              let check item =
                let has_string key =
                  match Json.member key item with
                  | Some (Json.String _) -> true
                  | _ -> false
                in
                let ph =
                  Option.bind (Json.member "ph" item) Json.to_string_opt
                in
                (match Json.member "tid" item with
                | Some (Json.Int tid) -> Hashtbl.replace tids tid ()
                | _ -> ());
                has_string "name"
                && (match ph with Some _ -> true | None -> false)
                && (match ph with
                   | Some "M" -> true (* metadata has no ts *)
                   | _ -> (
                       match Json.member "ts" item with
                       | Some (Json.Int _ | Json.Float _) -> true
                       | _ -> false))
              in
              match List.for_all check items with
              | true -> Ok (List.length items, Hashtbl.length tids)
              | false -> Error "malformed trace event")))
