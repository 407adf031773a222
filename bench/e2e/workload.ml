(* The five workloads and the measurement protocol they share.

   A run of one workload:

   1. Set-up: generate one unit's seeded inputs and run it as a warm-up.
      It runs again at the start of each later tenth of the timed
      section; [setup_s] is the median of the ten.
   2. The timed section: run units back to back for [seconds] of wall
      time, and at least once over the deterministic input set.  Every
      unit carries the same traffic mix.
   3. Throughput is ops per busy second over the faster half of the
      units.  On a host shared with other tenants, interference slows
      whole seconds of a run by up to 40%; it only ever adds time, so
      the slower half is set aside.  Over ten runs this halves the
      spread of a median over equal slices of the section.
   4. Virtual-time metrics come from the first pass over the input set
      only, so they are a pure function of the seed.  The input set is
      sized so that this pass fills most of the section: the more
      samples, the less a latency percentile moves from seed to seed.

   With [trace], the timed section shrinks to half the budget, and a
   traced pass reruns a prefix of the input set under a work profiler,
   with a bench-side scope around every call into a layer.  The
   per-layer metrics come from that pass; end-to-end metrics never
   do. *)

open Rdma_obs
open Rdma_smr
open Rdma_consensus

let now = Prof_clock.now

type direction = Lower | Higher

type metric = { name : string; value : float; unit_ : string }

(* Every workload reports every metric.  A per-layer metric of a layer
   the workload never enters reads 0. *)
let end_to_end =
  [
    ("setup_s", "s", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("ops_per_s", "1/s", Higher);
    ("sim_events_per_s", "1/s", Higher);
    ("latency_p50_delays", "delays", Lower);
    ("latency_p99_delays", "delays", Lower);
  ]

let engines = List.map (fun (module E : Consensus_engine.S) -> E.name) Engines.all

let per_engine name unit_ better =
  List.map (fun e -> (Printf.sprintf "%s.%s" name e, unit_, better)) engines

let per_layer =
  [
    ("sim.events_per_op", "count", Lower);
    ("sim.heap_pushes_per_op", "count", Lower);
    ("sim.run_self_us_per_op", "us", Lower);
    ("sim.heap_peak_depth", "count", Lower);
    ("net.msgs_per_op", "count", Lower);
  ]
  @ per_engine "net.msgs_per_op" "count" Lower
  @ [ ("mem.ops_per_op", "count", Lower) ]
  @ per_engine "mem.ops_per_commit" "count" Lower
  @ per_engine "mem.ops_per_read" "count" Lower
  @ [
      ("mem.fences_per_op", "count", Lower);
      ("mem.ops_lagged_per_op", "count", Lower);
      ("mem.ops_reordered_per_op", "count", Lower);
      ("crypto.signs_per_op", "count", Lower);
      ("crypto.verifies_per_op", "count", Lower);
      ("sha256.blocks_per_op", "count", Lower);
      ("hmac.macs_per_op", "count", Lower);
      ("crypto.sign_us_per_op", "us", Lower);
      ("crypto.verify_us_per_op", "us", Lower);
      ("mm.session_setup_us", "us", Lower);
    ]
  @ per_engine "mm.detect_delays" "delays" Lower
  @ [
      ("core.first_decide_p50_delays", "delays", Lower);
      ("core.first_decide_p99_delays", "delays", Lower);
      ("core.trusted_history_max", "count", Lower);
      ("core.instance_us_p50", "us", Lower);
      ("core.instance_us_p99", "us", Lower);
    ]
  @ per_engine "smr.commit_p50_delays" "delays" Lower
  @ per_engine "smr.commit_p99_delays" "delays" Lower
  @ per_engine "smr.read_p50_delays" "delays" Lower
  @ per_engine "smr.read_p99_delays" "delays" Lower
  @ per_engine "smr.queue_wait_p50_delays" "delays" Lower
  @ per_engine "smr.queue_wait_p99_delays" "delays" Lower
  @ per_engine "smr.service_p50_delays" "delays" Lower
  @ per_engine "smr.service_p99_delays" "delays" Lower
  @ per_engine "smr.paid_read_share" "ratio" Lower
  @ per_engine "smr.timeouts_per_op" "ratio" Lower
  @ [
      ("smr.checkpoints_per_commit", "ratio", Lower);
      ("smr.submit_us_per_op", "us", Lower);
      ("smr.read_us_per_op", "us", Lower);
      ("smr.lease_waits_per_session", "count", Lower);
    ]
  @ per_engine "smr.outage_delays" "delays" Lower
  @ per_engine "smr.recover_delays" "delays" Lower
  @ per_engine "smr.post_recover_wait_delays" "delays" Lower
  @ per_engine "smr.elections_per_session" "count" Lower
  @ per_engine "smr.follower_lag_max" "count" Lower
  @ per_engine "smr.repair_delays" "delays" Lower
  @ per_engine "smr.max_rate" "ops/delay" Higher
  @ per_engine "smr.single_node_commit_p50_delays" "delays" Lower
  @ [
      ("chaos.generate_us_per_schedule", "us", Lower);
      ("chaos.run_us_per_schedule", "us", Lower);
      ("chaos.shrink_probes_per_failure", "count", Lower);
      ("chaos.shrink_us_per_failure", "us", Lower);
      ("chaos.sim_events_per_schedule", "count", Lower);
      ("obs.trace_overhead", "ratio", Lower);
    ]

type report = {
  attempted : int;
  failed : int;
  problems : string list;  (** what failed, for the log *)
  metrics : metric list;  (** end-to-end, or per-layer when traced *)
  latency_samples : int;  (** behind the end-to-end latency percentiles *)
  records : Json.t list;  (** traced: one per request/instance/schedule *)
  prof : Prof.t option;  (** traced: the work profiler of the traced pass *)
}

(* {2 The shared measurement protocol} *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

type tick = { busy : float; ops : int; events : int }

(* Run units back to back until [seconds] passed and at least
   [min_units] ran.  [work i] builds unit [i]'s inputs and returns the
   part to time; [account] (the output checks and bookkeeping) is not
   timed either, and returns (ops, simulator events). *)
let loop ~seconds ~min_units ~work ~account =
  let t0 = now () in
  let ticks = ref [] and i = ref 0 in
  while !i < min_units || now () -. t0 < seconds do
    let r, busy = timed (work !i) in
    let ops, events = account !i r in
    ticks := { busy; ops; events } :: !ticks;
    incr i
  done;
  List.rev !ticks

(* Σ x / Σ busy over the half of the units with the highest ops rate. *)
let fast_half_rate ticks x =
  let rate t = float_of_int t.ops /. t.busy in
  let fast =
    List.sort (fun a b -> Float.compare (rate b) (rate a)) ticks
    |> List.filteri (fun i _ -> i < (List.length ticks + 1) / 2)
  in
  Pct.ratio
    (List.fold_left (fun a t -> a +. x t) 0.0 fast)
    (List.fold_left (fun a t -> a +. t.busy) 0.0 fast)

let ops_rate ticks = fast_half_rate ticks (fun t -> float_of_int t.ops)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> 0.0
      in
      scan ())

(* The untraced timed section: units back to back until [seconds]
   passed and each of the [units] of the input set ran once.
   [prepare], the set-up whose first run took [setup0], runs again at
   the start of each later tenth of the section: set-ups done back to
   back all see the host in the same moment, so their median would
   vary from run to run as much as the host does.  Also returns the
   peak RSS after the first pass; later units repeat its inputs and
   only make garbage, so a later reading would vary with how far a
   time-bounded run got.  The benchmark keeps only what the
   end-to-end metrics need, so the reading is mostly the system's. *)
let timed_section ~seconds ~units ~setup0 ~prepare ~work ~account =
  let t0 = now () in
  let marks = ref (List.init 9 (fun k -> float_of_int (k + 1) *. seconds /. 10.0)) in
  let setups = ref [ setup0 ] and rss = ref 0.0 in
  let account i r =
    let counted = account i r in
    if i = units - 1 then rss := peak_rss_mb ();
    (match !marks with
    | m :: rest when now () -. t0 >= m ->
        marks := rest;
        setups := snd (timed prepare) :: !setups
    | _ -> ());
    counted
  in
  let ticks = loop ~seconds ~min_units:units ~work ~account in
  (ticks, !rss, Pct.median !setups)

(* Failure bookkeeping of one run: every failed check is one failed op;
   the first few are kept for the log. *)
type tally = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let tally () = { attempted = 0; failed = 0; problems = [] }

let fail t what =
  t.failed <- t.failed + 1;
  if List.length t.problems < 20 then t.problems <- what :: t.problems

let attempt t (ticks : tick list) =
  t.attempted <- List.fold_left (fun a k -> a + k.ops) t.attempted ticks

let with_defaults catalog ~default values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (n, _, _) -> n = name) catalog) then
        invalid_arg ("Workload: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_, _) ->
      { name; unit_; value = Option.value ~default (List.assoc_opt name values) })
    catalog

(* The untraced run's report: the timed section's throughput, the
   first pass's virtual latencies. *)
let e2e_report t ~setup_s ~rss ticks latencies =
  Array.sort Float.compare latencies;
  let pct q =
    match Pct.nearest_rank q latencies with
    | Some v -> v
    | None ->
        fail t
          (Printf.sprintf "%d latency samples cannot support p%g"
             (Array.length latencies) (q *. 100.0));
        nan
  in
  let metrics =
    with_defaults end_to_end ~default:nan
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", rss);
        ("ops_per_s", ops_rate ticks);
        ("sim_events_per_s", fast_half_rate ticks (fun k -> float_of_int k.events));
        ("latency_p50_delays", pct 0.5);
        ("latency_p99_delays", pct 0.99);
      ]
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    problems = List.rev t.problems;
    metrics;
    latency_samples = Array.length latencies;
    records = [];
    prof = None;
  }

let layer_report t prof ~records values =
  {
    attempted = t.attempted;
    failed = t.failed;
    problems = List.rev t.problems;
    metrics = with_defaults per_layer ~default:0.0 values;
    latency_samples = 0;
    records;
    prof = Some prof;
  }

let overhead ~untraced ~traced =
  ("obs.trace_overhead", 1.0 -. Pct.ratio (ops_rate traced) (ops_rate untraced))

(* {2 Reading the traced pass's profiler} *)

let components path = String.split_on_char ';' path

let under name path = List.mem name (components path)

(* Σ of [counter] over the scope paths [keep] selects. *)
let count ?(keep = fun _ -> true) prof counter =
  List.fold_left
    (fun acc (path, rows) ->
      if keep path then acc + Option.value ~default:0 (List.assoc_opt counter rows)
      else acc)
    0 (Prof.by_scope prof)
  |> float_of_int

(* Wall seconds inside scopes named [name], counting a scope nested in
   itself once. *)
let seconds_in prof name =
  List.fold_left
    (fun acc (path, _, total, _) ->
      match List.rev (components path) with
      | last :: outer when last = name && not (List.mem name outer) -> acc +. total
      | _ -> acc)
    0.0 (Prof.timings prof)

let self_seconds_in prof name =
  List.fold_left
    (fun acc (path, _, _, self) ->
      match List.rev (components path) with
      | last :: _ when last = name -> acc +. self
      | _ -> acc)
    0.0 (Prof.timings prof)

(* The per-layer metrics every workload derives the same way, per op. *)
let common_layers prof ~ops ~heap_peak =
  let per x = Pct.ratio x ops in
  let us x = per (x *. 1e6) in
  [
    ("sim.events_per_op", per (count prof "sim.events.popped"));
    ("sim.heap_pushes_per_op", per (count prof "sim.heap.pushes"));
    ("sim.run_self_us_per_op", us (self_seconds_in prof "cluster.run"));
    ("sim.heap_peak_depth", float_of_int heap_peak);
    ("net.msgs_per_op", per (count prof "net.msgs.sent"));
    ("mem.ops_per_op", per (count prof "mem.ops.issued"));
    ("mem.fences_per_op", per (count prof "mem.fences"));
    ("mem.ops_lagged_per_op", per (count prof "mem.ops.lagged"));
    ("mem.ops_reordered_per_op", per (count prof "mem.ops.reordered"));
    ("crypto.signs_per_op", per (count prof "crypto.signs"));
    ("crypto.verifies_per_op", per (count prof "crypto.verifies"));
    ("sha256.blocks_per_op", per (count prof "sha256.blocks"));
    ("hmac.macs_per_op", per (count prof "hmac.macs"));
    ("crypto.sign_us_per_op", us (seconds_in prof "crypto.sign"));
    ("crypto.verify_us_per_op", us (seconds_in prof "crypto.verify"));
  ]

let max_of f l = List.fold_left (fun a x -> max a (f x)) 0 l

let sum_of f l = List.fold_left (fun a x -> a + f x) 0 l

let pct_or_zero q l = Option.value ~default:0.0 (Pct.percentile q l)

(* {2 KV workloads} *)

type kv = {
  spec : Arrivals.spec;
  session : Kv_session.config;
  inputs : int;  (** sessions per engine in the input set *)
  per_unit : int;  (** inputs per timed unit, so a unit runs ~50 ms *)
  traced_units : int;  (** units the traced pass reruns *)
  faults : Random.State.t -> Fault.t list;  (** drawn per session *)
}

type kv_input = { stream : int; reqs : Arrivals.request array; fault_list : Fault.t list }

let session_config ~replicas ~memories ~lag_every =
  {
    Kv_session.replicas;
    memories;
    clients = 16;
    engine_cfg =
      {
        Consensus_engine.default_config with
        replicas;
        (* sessions stop their replicas once the schedule is served *)
        serve_until = 1e6;
        checkpoint_every = 32;
        anti_entropy_every = 10.0;
        lease_duration = 20.0;
      };
    timeout = 400.0;
    lag_every;
  }

let kv_input kv ~seed stream =
  {
    stream;
    reqs = Arrivals.generate kv.spec ~seed ~stream;
    fault_list = kv.faults (Random.State.make [| seed; stream; 7 |]);
  }

(* One unit: each input against every engine, each session under its
   own profiler scope so per-engine counts separate.  Sessions come back
   paired with their fault schedules. *)
let kv_unit kv ~seed inputs =
  List.concat_map
    (fun input ->
      List.map
        (fun ((module E : Consensus_engine.S) as engine) ->
          ( Prof.scope ("kv." ^ E.name) (fun () ->
                Kv_session.run engine kv.session
                  ~seed:(Hashtbl.hash (seed, input.stream))
                  ~faults:input.fault_list input.reqs),
            input.fault_list ))
        Engines.all)
    inputs

let kv_account t runs =
  List.fold_left
    (fun (ops, events) ((s : Kv_session.t), _) ->
      let timeouts = Kv_session.timeouts s in
      if timeouts > 0 then
        fail t (Printf.sprintf "%s: %d requests timed out" s.engine timeouts);
      List.iter (fun v -> fail t (s.engine ^ ": " ^ v)) (Kv_session.violations s);
      (ops + Array.length s.records, events + s.events))
    (0, 0) runs

let completed (s : Kv_session.t) =
  List.filter (fun (r : Kv_session.record) -> r.result <> None) (Array.to_list s.records)

let is_write (r : Kv_session.record) =
  match r.req.Arrivals.op with Arrivals.Set _ -> true | Arrivals.Read -> false

let latencies sessions =
  List.concat_map (fun s -> List.map Kv_session.latency (completed s)) sessions

(* The highest grid rate that passes before the first one that fails:
   past saturation a higher rate only grows the backlog. *)
let max_rate ~rates passes =
  let rec go best = function
    | [] -> best
    | r :: rest -> if passes r then go (Some r) rest else best
  in
  go None rates

let sweep_rates = List.init 25 (fun k -> 0.1 *. Float.pow 1.1 (float_of_int k))

(* Commit p99 limit for the sweep: 10x the 4-delay unloaded commit. *)
let latency_limit = 40.0

let kv_sweep kv ~seed (engine : Consensus_engine.engine) =
  max_rate ~rates:sweep_rates (fun rate ->
      let samples =
        List.concat_map
          (fun j ->
            let stream = 100_000 + int_of_float (rate *. 1e4) + j in
            let reqs = Arrivals.generate { kv.spec with rate } ~seed ~stream in
            let s =
              Kv_session.run engine kv.session ~seed:(Hashtbl.hash (seed, stream))
                ~faults:[] reqs
            in
            (* an unserved request misses the limit *)
            Array.to_list s.records
            |> List.map (fun r ->
                   if r.Kv_session.result = None then Float.infinity
                   else Kv_session.latency r))
          (List.init 4 Fun.id)
      in
      match Pct.percentile 0.99 samples with
      | Some p99 -> p99 <= latency_limit
      | None -> false)

let single_node_commit_p50 kv ~seed engine =
  let session = session_config ~replicas:1 ~memories:1 ~lag_every:0.0 in
  List.init 4 (fun j ->
      let stream = 200_000 + j in
      Kv_session.run engine session ~seed:(Hashtbl.hash (seed, stream)) ~faults:[]
        (Arrivals.generate kv.spec ~seed ~stream))
  |> latencies |> pct_or_zero 0.5

(* One session's failover breakdown, from its fault schedule and the
   virtual times it observed.  The parts sum to [outage]. *)
type failover = {
  detect : float;  (** leader crash -> Ω moves *)
  recover : float;  (** Ω moves -> the new reign recovered *)
  wait : float;  (** recovered -> first completed request *)
  outage : float;  (** leader crash -> first completed request *)
  repair : float option;  (** memory rejoin -> state transferred onto it *)
}

let first_after t times = List.find_opt (fun x -> x >= t) (List.sort compare times)

let failover (s : Kv_session.t) faults =
  let ( let* ) = Option.bind in
  let* crash =
    List.find_map (function Fault.Crash_process { at; _ } -> Some at | _ -> None) faults
  in
  let* change = first_after crash s.leader_changes in
  let* recovered = first_after change s.recoveries in
  let* served =
    first_after change (List.map (fun (r : Kv_session.record) -> r.done_at) (completed s))
  in
  let repair =
    match s.mem_restarts with
    | restart :: _ -> Option.map (fun r -> r -. restart) (first_after restart s.repairs)
    | [] -> None
  in
  Some
    {
      detect = change -. crash;
      recover = recovered -. change;
      wait = served -. recovered;
      outage = served -. crash;
      repair;
    }

(* Per-engine layer metrics; [runs] pairs each traced session with its
   fault schedule. *)
let kv_engine_layers prof runs name =
  let runs = List.filter (fun ((s : Kv_session.t), _) -> s.engine = name) runs in
  let mine = List.map fst runs in
  let in_scope path = under ("kv." ^ name) path in
  let read_path path =
    in_scope path
    && List.exists (fun s -> under s path)
         [ "pmp.read.lease"; "velos.read.leased"; "velos.read.quorum" ]
  in
  let records = List.concat_map (fun (s : Kv_session.t) -> Array.to_list s.records) mine in
  let n = float_of_int (List.length records) in
  let done_ = List.concat_map completed mine in
  let writes = List.filter is_write done_ in
  let reads = List.filter (fun r -> not (is_write r)) done_ in
  let lat l = List.map Kv_session.latency l in
  let waits = List.map (fun (r : Kv_session.record) -> r.pickup -. r.req.Arrivals.due) records in
  let service = List.map (fun (r : Kv_session.record) -> r.done_at -. r.pickup) done_ in
  let mem_reads = count ~keep:read_path prof "mem.ops.issued" in
  let mem_all = count ~keep:in_scope prof "mem.ops.issued" in
  let nreads = float_of_int (List.length reads) in
  let breakdowns = List.filter_map (fun (s, faults) -> failover s faults) runs in
  let med f =
    match List.filter_map f breakdowns with [] -> 0.0 | l -> Pct.median l
  in
  let per_session x = Pct.ratio (float_of_int x) (float_of_int (List.length mine)) in
  let key m = Printf.sprintf "%s.%s" m name in
  [
    (key "net.msgs_per_op", Pct.ratio (count ~keep:in_scope prof "net.msgs.sent") n);
    ( key "mem.ops_per_commit",
      Pct.ratio (mem_all -. mem_reads) (float_of_int (List.length writes)) );
    (key "mem.ops_per_read", Pct.ratio mem_reads nreads);
    (key "smr.commit_p50_delays", pct_or_zero 0.5 (lat writes));
    (key "smr.commit_p99_delays", pct_or_zero 0.99 (lat writes));
    (key "smr.read_p50_delays", pct_or_zero 0.5 (lat reads));
    (key "smr.read_p99_delays", pct_or_zero 0.99 (lat reads));
    (key "smr.queue_wait_p50_delays", pct_or_zero 0.5 waits);
    (key "smr.queue_wait_p99_delays", pct_or_zero 0.99 waits);
    (key "smr.service_p50_delays", pct_or_zero 0.5 service);
    (key "smr.service_p99_delays", pct_or_zero 0.99 service);
    ( key "smr.paid_read_share",
      Pct.ratio (nreads -. count ~keep:in_scope prof "smr.reads.leased") nreads );
    ( key "smr.timeouts_per_op",
      Pct.ratio (n -. float_of_int (List.length done_)) n );
    (key "mm.detect_delays", med (fun b -> Some b.detect));
    (key "smr.outage_delays", med (fun b -> Some b.outage));
    (key "smr.recover_delays", med (fun b -> Some b.recover));
    (key "smr.post_recover_wait_delays", med (fun b -> Some b.wait));
    (key "smr.repair_delays", med (fun b -> b.repair));
    ( key "smr.elections_per_session",
      per_session (sum_of (fun (s : Kv_session.t) -> List.length s.leader_changes) mine) );
    ( key "smr.follower_lag_max",
      float_of_int (max_of (fun (s : Kv_session.t) -> s.lag_max) mine) );
  ]

let request_record (s : Kv_session.t) (r : Kv_session.record) =
  Json.Obj
    [
      ("id", Json.Int r.req.Arrivals.id);
      ("engine", Json.String s.engine);
      ("kind", Json.String (if is_write r then "set" else "read"));
      ("due", Json.Float r.req.Arrivals.due);
      ("pickup", Json.Float r.pickup);
      ("done", Json.Float r.done_at);
      ( "outcome",
        match r.result with
        | Some i -> Json.Obj [ ("index", Json.Int i) ]
        | None -> Json.String "timeout" );
    ]

let run_kv kv ~sweep ~seed ~seconds ~trace =
  let t = tally () in
  let units = kv.inputs / kv.per_unit in
  let work u =
    let inputs =
      List.init kv.per_unit (fun j -> kv_input kv ~seed ((u mod units * kv.per_unit) + j))
    in
    fun () -> kv_unit kv ~seed inputs
  in
  let prepare () = ignore (work 0 ()) in
  let (), setup0 = timed prepare in
  if not trace then begin
    let first = Array.make units [||] in
    let account u runs =
      if u < units then first.(u) <- Array.of_list (latencies (List.map fst runs));
      kv_account t runs
    in
    let ticks, rss, setup_s =
      timed_section ~seconds ~units ~setup0 ~prepare ~work ~account
    in
    attempt t ticks;
    e2e_report t ~setup_s ~rss ticks (Array.concat (Array.to_list first))
  end
  else begin
    let ticks =
      loop ~seconds:(seconds /. 2.0) ~min_units:0 ~work ~account:(fun _ runs ->
          kv_account t runs)
    in
    attempt t ticks;
    let first = Array.make kv.traced_units [] in
    let account u runs =
      first.(u) <- runs;
      kv_account t runs
    in
    let prof = Prof.create () in
    let traced =
      Prof.with_profiler prof (fun () ->
          loop ~seconds:0.0 ~min_units:kv.traced_units ~work ~account)
    in
    attempt t traced;
    let runs = List.concat (Array.to_list first) in
    let sessions = List.map fst runs in
    let ops = float_of_int (sum_of (fun (s : Kv_session.t) -> Array.length s.records) sessions) in
    let writes = List.filter is_write (List.concat_map completed sessions) in
    let us_per_op scope = Pct.ratio (seconds_in prof scope *. 1e6) ops in
    let per_session x = Pct.ratio (float_of_int x) (float_of_int (List.length sessions)) in
    let values =
      common_layers prof ~ops
        ~heap_peak:(max_of (fun (s : Kv_session.t) -> s.heap_peak) sessions)
      @ List.concat_map (kv_engine_layers prof runs) engines
      @ [
          ( "mm.session_setup_us",
            Pct.ratio (seconds_in prof "mm.session_setup" *. 1e6)
              (float_of_int (List.length sessions)) );
          ( "smr.checkpoints_per_commit",
            Pct.ratio
              (float_of_int (sum_of (fun (s : Kv_session.t) -> s.checkpoints) sessions))
              (float_of_int (List.length writes)) );
          ("smr.submit_us_per_op", us_per_op "smr.submit");
          ("smr.read_us_per_op", us_per_op "smr.read");
          ( "smr.lease_waits_per_session",
            per_session (sum_of (fun (s : Kv_session.t) -> s.lease_waits) sessions) );
          overhead ~untraced:ticks ~traced;
        ]
      @
      if not sweep then []
      else
        List.concat_map
          (fun ((module E : Consensus_engine.S) as engine) ->
            [
              ( "smr.max_rate." ^ E.name,
                Option.value ~default:0.0 (kv_sweep kv ~seed engine) );
              ( "smr.single_node_commit_p50_delays." ^ E.name,
                single_node_commit_p50 kv ~seed engine );
            ])
          Engines.all
    in
    layer_report t prof values
      ~records:
        (List.concat_map
           (fun (s : Kv_session.t) -> Array.to_list (Array.map (request_record s) s.records))
           sessions)
  end

let kv_write =
  {
    spec =
      {
        Arrivals.rate = 0.3;
        count = 250;
        read_share = 0.0;
        keys = Arrivals.Uniform;
        key_space = 1000;
        value_bytes = 32;
      };
    session = session_config ~replicas:3 ~memories:3 ~lag_every:0.0;
    inputs = 400;
    per_unit = 2;
    traced_units = 40;
    faults = (fun _ -> []);
  }

let kv_read =
  {
    spec =
      {
        Arrivals.rate = 1.5;
        count = 2500;
        read_share = 0.9;
        keys = Arrivals.Zipf 0.99;
        key_space = 1000;
        value_bytes = 32;
      };
    session = session_config ~replicas:3 ~memories:3 ~lag_every:0.0;
    inputs = 160;
    per_unit = 1;
    traced_units = 8;
    faults = (fun _ -> []);
  }

(* Memory 1 crashes and rejoins empty 40 delays later; then the leader
   crashes at a seeded time in [150, 250). *)
let failover_faults rng =
  let mem_at = 40.0 +. Random.State.float rng 60.0 in
  let crash_at = 150.0 +. Random.State.float rng 100.0 in
  [
    Fault.Crash_memory { mid = 1; at = mem_at };
    Fault.Recover_memory { mid = 1; at = mem_at +. 40.0 };
    Fault.Crash_process { pid = 0; at = crash_at };
  ]

let kv_failover =
  {
    spec =
      {
        Arrivals.rate = 0.2;
        count = 100;
        read_share = 0.5;
        keys = Arrivals.Uniform;
        key_space = 1000;
        value_bytes = 32;
      };
    session = session_config ~replicas:3 ~memories:3 ~lag_every:10.0;
    inputs = 1280;
    per_unit = 8;
    traced_units = 4;
    faults = failover_faults;
  }

(* {2 Byzantine agreement} *)

(* 250 cycles = 1000 instances, enough for a latency p99. *)
let byz_cycles = 250

let byz_unit ~seed u =
  List.mapi
    (fun j config ->
      let i = (u * List.length Byz.cycle) + j in
      timed (fun () ->
          Prof.scope "byz.instance" (fun () ->
              Byz.run config ~seed:(Hashtbl.hash (seed, "byz", i)))))
    Byz.cycle

let byz_account t outcomes =
  List.fold_left
    (fun (ops, events) ((o : Byz.outcome), _) ->
      List.iter (fun v -> fail t (Byz.config_name o.config ^ ": " ^ v)) o.violations;
      (ops + 1, events + o.events))
    (0, 0) outcomes

let run_byz ~seed ~seconds ~trace =
  let t = tally () in
  let prepare () = ignore (byz_unit ~seed (-1)) in
  let (), setup0 = timed prepare in
  let first = Array.make byz_cycles [] in
  let work u () = byz_unit ~seed (u mod byz_cycles) in
  let account u outcomes =
    if u < byz_cycles then first.(u) <- outcomes;
    byz_account t outcomes
  in
  if not trace then begin
    let ticks, rss, setup_s =
      timed_section ~seconds ~units:byz_cycles ~setup0 ~prepare ~work ~account
    in
    attempt t ticks;
    e2e_report t ~setup_s ~rss ticks
      (Array.of_list
         (List.concat_map
            (List.filter_map (fun ((o : Byz.outcome), _) -> o.last))
            (Array.to_list first)))
  end
  else begin
    let ticks = loop ~seconds:(seconds /. 2.0) ~min_units:0 ~work ~account in
    attempt t ticks;
    let prof = Prof.create () in
    let traced =
      Prof.with_profiler prof (fun () ->
          loop ~seconds:0.0 ~min_units:byz_cycles ~work ~account)
    in
    attempt t traced;
    let outcomes = List.concat (Array.to_list first) in
    let walls = List.map (fun (_, w) -> w *. 1e6) outcomes in
    let firsts = List.filter_map (fun ((o : Byz.outcome), _) -> o.first) outcomes in
    let values =
      common_layers prof
        ~ops:(float_of_int (List.length outcomes))
        ~heap_peak:(max_of (fun ((o : Byz.outcome), _) -> o.heap_peak) outcomes)
      @ [
          ("core.first_decide_p50_delays", pct_or_zero 0.5 firsts);
          ("core.first_decide_p99_delays", pct_or_zero 0.99 firsts);
          ( "core.trusted_history_max",
            float_of_int (max_of (fun ((o : Byz.outcome), _) -> o.history_max) outcomes) );
          ("core.instance_us_p50", pct_or_zero 0.5 walls);
          ("core.instance_us_p99", pct_or_zero 0.99 walls);
          overhead ~untraced:ticks ~traced;
        ]
    in
    let opt = function Some v -> Json.Float v | None -> Json.Null in
    layer_report t prof values
      ~records:
        (List.mapi
           (fun i ((o : Byz.outcome), wall) ->
             Json.Obj
               [
                 ("id", Json.Int i);
                 ("config", Json.String (Byz.config_name o.config));
                 ("first", opt o.first);
                 ("done", opt o.last);
                 ("wall_us", Json.Float (wall *. 1e6));
                 ("outcome", Json.String (if o.violations = [] then "ok" else "violation"));
               ])
           outcomes)
  end

(* {2 Chaos exploration} *)

(* Schedules per scenario in the deterministic pass.  The latencies
   come from the cheap single-instance scenarios, so they get most. *)
let chaos_schedules s = if Chaos.decides_a_value s then 8000 else 50

(* A round runs [chaos_runs_per_round] schedules of every scenario
   through Explore; the timed section cycles over [chaos_rounds] of
   them, about two seconds of work. *)
let chaos_runs_per_round = 20

let chaos_rounds = 20

let chaos_pass ~seed f =
  List.iter
    (fun s ->
      for i = 0 to chaos_schedules s - 1 do
        f (Chaos.schedule s ~seed:((seed * 1_000_000) + i))
      done)
    Chaos.scenarios

let chaos_round ~seed u =
  Chaos.round
    ~base:((seed * 1_000_000) + 500_000 + (u mod chaos_rounds * chaos_runs_per_round))
    ~runs:chaos_runs_per_round

let chaos_account t _ (ops, failed, events) =
  List.iter (fail t) failed;
  (ops, events)

let chaos_check t (sch : Chaos.schedule) =
  List.iter
    (fun v -> fail t (Printf.sprintf "%s seed %d: %s" sch.scenario sch.case_seed v))
    sch.failures

let run_chaos ~seed ~seconds ~trace =
  let t = tally () in
  let prepare () = ignore (chaos_round ~seed (-1)) in
  let (), setup0 = timed prepare in
  let work u () = chaos_round ~seed u and account = chaos_account t in
  (* Explore keeps each schedule's report to itself, so the
     deterministic pass calls the pieces it composes directly.  It
     checks every schedule and keeps what [keep] extracts. *)
  let pass keep =
    let kept = ref [] in
    chaos_pass ~seed (fun sch ->
        chaos_check t sch;
        t.attempted <- t.attempted + 1;
        Option.iter (fun x -> kept := x :: !kept) (keep sch));
    List.rev !kept
  in
  if not trace then begin
    let latencies =
      pass (fun (sch : Chaos.schedule) -> if sch.timed then sch.last else None)
    in
    let ticks, rss, setup_s =
      timed_section ~seconds ~units:chaos_rounds ~setup0 ~prepare ~work ~account
    in
    attempt t ticks;
    e2e_report t ~setup_s ~rss ticks (Array.of_list latencies)
  end
  else begin
    let ticks = loop ~seconds:(seconds /. 2.0) ~min_units:0 ~work ~account in
    attempt t ticks;
    (* Explore masks any installed profiler inside its tasks: the
       overhead pass measures rounds, the per-layer pass the pieces. *)
    let traced =
      Prof.with_profiler (Prof.create ()) (fun () ->
          loop ~seconds:0.0 ~min_units:chaos_rounds ~work ~account)
    in
    attempt t traced;
    let prof = Prof.create () in
    let pass = Prof.with_profiler prof (fun () -> pass Option.some) in
    let n = float_of_int (List.length pass) in
    let failures =
      float_of_int
        (List.length (List.filter (fun (s : Chaos.schedule) -> s.violations <> []) pass))
    in
    let values =
      common_layers prof ~ops:n ~heap_peak:(max_of (fun (s : Chaos.schedule) -> s.heap_peak) pass)
      @ [
          ( "chaos.generate_us_per_schedule",
            Pct.ratio (seconds_in prof "chaos.generate" *. 1e6) n );
          ("chaos.run_us_per_schedule", Pct.ratio (seconds_in prof "chaos.run" *. 1e6) n);
          ( "chaos.shrink_probes_per_failure",
            Pct.ratio
              (float_of_int (sum_of (fun (s : Chaos.schedule) -> s.shrink_probes) pass))
              failures );
          ( "chaos.shrink_us_per_failure",
            Pct.ratio (seconds_in prof "chaos.shrink" *. 1e6) failures );
          ( "chaos.sim_events_per_schedule",
            Pct.ratio (float_of_int (sum_of (fun (s : Chaos.schedule) -> s.events) pass)) n );
          overhead ~untraced:ticks ~traced;
        ]
    in
    layer_report t prof values
      ~records:
        (List.mapi
           (fun i (s : Chaos.schedule) ->
             Json.Obj
               [
                 ("id", Json.Int i);
                 ("scenario", Json.String s.scenario);
                 ("seed", Json.Int s.case_seed);
                 ("done", match s.last with Some v -> Json.Float v | None -> Json.Null);
                 ("outcome", Json.String (if s.violations = [] then "ok" else "violation"));
                 ("shrink_probes", Json.Int s.shrink_probes);
               ])
           pass)
  end

(* {2 The registry} *)

type t = {
  name : string;
  why : string;
  run : seed:int -> seconds:float -> trace:bool -> report;
}

let all =
  [
    {
      name = "kv-write";
      why =
        "open-loop Kv.Set at 0.3 ops/delay on both engines: the commit path \
         (log append, checkpoints, quorum writes, network) does the work";
      run = run_kv kv_write ~sweep:true;
    };
    {
      name = "kv-read";
      why =
        "90% linearizable reads at 1.5 ops/delay, Zipf keys: leased velos \
         reads skip memory, pmp pays a lease write per read batch";
      run = run_kv kv_read ~sweep:false;
    };
    {
      name = "kv-failover";
      why =
        "memory rejoin then leader crash per session: detection, recovery, \
         lease wait and repair sit on the critical path";
      run = run_kv kv_failover ~sweep:false;
    };
    {
      name = "byz-agreement";
      why =
        "Fast & Robust instances, honest and Byzantine leaders: crypto and \
         Trusted/NEB do the work; kv-* sign nothing, so they are its control";
      run = run_byz;
    };
    {
      name = "chaos-sweep";
      why =
        "adversarial schedules over every non-Byzantine scenario: nemesis, \
         oracle and shrinker with little crypto";
      run = run_chaos;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
