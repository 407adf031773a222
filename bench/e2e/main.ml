(* The benchmark CLI: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe --list

   Prints every metric by name with its unit, then, as the last line,
   one JSON object {correct, attempted, failed, metrics}.  With
   [--trace 1] the metrics are the per-layer ones and the per-request
   records plus a perf snapshot are written under DIR.  Exit code: 0
   when every output check passed, 1 when one failed, 2 on bad usage. *)

open Rdma_obs
open Rdma_e2e

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
  prerr_endline "       main.exe --list";
  exit 2

let rec parse args acc =
  match args with
  | [] -> acc
  | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      parse rest ((String.sub flag 2 (String.length flag - 2), value) :: acc)
  | _ -> usage ()

let write_file file contents =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); "--list" ] then begin
    List.iter (fun w -> print_endline w.Workload.name) Workload.all;
    exit 0
  end;
  let args = parse (List.tl (Array.to_list Sys.argv)) [] in
  let get key = List.assoc_opt key args in
  let int key = Option.bind (get key) int_of_string_opt in
  let w, seed, seconds, trace =
    match
      ( Option.bind (get "workload") Workload.find,
        int "seed",
        Option.bind (get "seconds") float_of_string_opt,
        int "trace" )
    with
    | Some w, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0.0 ->
        (w, seed, seconds, trace = 1)
    | _ -> usage ()
  in
  let out = Option.value ~default:"bench/e2e/out" (get "out") in
  Printf.printf "workload %s seed %d seconds %g trace %b\n%!" w.Workload.name seed
    seconds trace;
  let r = w.Workload.run ~seed ~seconds ~trace in
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) r.Workload.problems;
  List.iter
    (fun (m : Workload.metric) -> Printf.printf "metric %-40s %14.6f %s\n" m.name m.value m.unit_)
    r.Workload.metrics;
  if r.Workload.latency_samples > 0 then
    Printf.printf "latency percentiles over %d samples\n" r.Workload.latency_samples;
  Printf.printf "ops attempted %d failed %d (failed share %.6f)\n" r.Workload.attempted
    r.Workload.failed
    (Pct.ratio (float_of_int r.Workload.failed) (float_of_int r.Workload.attempted));
  (match r.Workload.prof with
  | None -> ()
  | Some prof ->
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      let file = Filename.concat out (Printf.sprintf "%s-seed%d.json" w.Workload.name seed) in
      write_file file
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.String w.Workload.name);
                ("seed", Json.Int seed);
                ("records", Json.List r.Workload.records);
                ("perf", Export.perf_snapshot_json ~id:w.Workload.name prof);
              ]));
      Printf.printf "trace: %d records and a perf snapshot in %s\n"
        (List.length r.Workload.records) file);
  let correct =
    r.Workload.failed = 0
    && List.for_all (fun (m : Workload.metric) -> Float.is_finite m.value) r.Workload.metrics
  in
  (* Values keep every digit (%.17g); [Json] rounds floats to 12. *)
  let str s = Json.to_string (Json.String s) in
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct
    r.Workload.attempted r.Workload.failed
    (String.concat ","
       (List.map
          (fun (m : Workload.metric) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (str m.name) (value m.value)
              (str m.unit_))
          r.Workload.metrics));
  exit (if correct then 0 else 1)
