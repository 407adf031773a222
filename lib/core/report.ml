(* Uniform run reports.

   Every algorithm runner produces a [Report.t]: per-process decisions
   with their virtual decision times (= delay counts, since one network
   delay is the time unit), plus the run's costs, all read from the
   cluster's telemetry collector.  The property checks used throughout
   the tests and benches live here too. *)

open Rdma_sim
open Rdma_obs
open Rdma_mm

type decision = { value : string; at : float }

(* One protocol phase's latency distribution over the run, distilled from
   the telemetry histograms (spans recorded under ~cat:"phase"). *)
type phase = {
  phase : string;
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  worst : float;
}

type t = {
  algorithm : string;
  n : int;
  m : int;
  decisions : decision option array;
  messages : int;
  mem_ops : int;
  signatures : int;
  sim_steps : int;
  named : (string * int) list; (* the collector's counters and gauges *)
  phases : phase list; (* per-phase latency breakdown, sorted by name *)
}

let phases_of_obs obs =
  List.map
    (fun (name, (s : Hist.summary)) ->
      {
        phase = name;
        count = s.Hist.count;
        p50 = s.Hist.p50;
        p90 = s.Hist.p90;
        p99 = s.Hist.p99;
        worst = s.Hist.max;
      })
    (Obs.summaries ~cat:"phase" obs)

(* Gauges are high watermarks of integer quantities (history lengths,
   payload bytes), so they read back as ints next to the counters. *)
let of_cluster ~algorithm ~n ~m ~decisions cluster =
  let obs = Cluster.obs cluster in
  {
    algorithm;
    n;
    m;
    decisions;
    messages = Obs.counter obs "net.msgs.sent";
    mem_ops = Obs.counter obs "mem.ops";
    signatures = Obs.counter obs "crypto.signs";
    sim_steps = Engine.steps (Cluster.engine cluster);
    named =
      List.sort compare
        (Obs.counters obs
        @ List.map (fun (k, v) -> (k, int_of_float v)) (Obs.gauges obs));
    phases = phases_of_obs obs;
  }

let named t key =
  match List.assoc_opt key t.named with Some v -> v | None -> 0

let decided t =
  Array.to_list t.decisions |> List.filter_map Fun.id

let decided_count t = List.length (decided t)

(* Uniform agreement over the processes that decided; the caller excludes
   Byzantine processes before building the report if needed. *)
let agreement_ok ?(ignore_pids = []) t =
  let values =
    Array.to_list t.decisions
    |> List.mapi (fun pid d -> (pid, d))
    |> List.filter (fun (pid, _) -> not (List.mem pid ignore_pids))
    |> List.filter_map (fun (_, d) -> Option.map (fun d -> d.value) d)
  in
  match List.sort_uniq String.compare values with [] | [ _ ] -> true | _ -> false

(* Validity: every decision is some process's input. *)
let validity_ok ?(ignore_pids = []) t ~inputs =
  Array.to_list t.decisions
  |> List.mapi (fun pid d -> (pid, d))
  |> List.for_all (fun (pid, d) ->
         List.mem pid ignore_pids
         ||
         match d with
         | None -> true
         | Some d -> Array.exists (String.equal d.value) inputs)

(* Earliest decision time — the paper's "k-deciding" metric: some process
   decides within k delays. *)
let first_decision_time t =
  decided t |> List.map (fun d -> d.at)
  |> function [] -> None | ts -> Some (List.fold_left min infinity ts)

let last_decision_time t =
  decided t |> List.map (fun d -> d.at)
  |> function [] -> None | ts -> Some (List.fold_left max neg_infinity ts)

let decision_value t =
  match decided t with [] -> None | d :: _ -> Some d.value

let pp ppf t =
  Fmt.pf ppf "%s n=%d m=%d decided=%d/%d first=%a msgs=%d memops=%d signs=%d"
    t.algorithm t.n t.m (decided_count t) t.n
    Fmt.(option ~none:(any "-") (fmt "%.1f"))
    (first_decision_time t) t.messages t.mem_ops t.signatures

let pp_phase ppf p =
  Fmt.pf ppf "%-20s n=%-5d p50=%-8.2f p90=%-8.2f p99=%-8.2f worst=%.2f"
    p.phase p.count p.p50 p.p90 p.p99 p.worst

let pp_phases ppf t =
  match t.phases with
  | [] -> Fmt.pf ppf "(no phase telemetry)"
  | ps -> Fmt.(list ~sep:(any "@\n") pp_phase) ppf ps
