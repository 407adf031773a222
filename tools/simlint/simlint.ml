(* simlint CLI.

   Usage: dune exec tools/simlint/simlint.exe -- [options] lib/ bin/

   Scans every .ml/.mli under the given roots, prints findings as
   [file:line: [RULE-ID] message], and exits nonzero if any survive the
   [@simlint.allow] attributes.
   [--json] emits the full machine-readable report instead — every
   finding including suppressed ones with their justification, in
   stable (file, line, col, rule) order.  [--dump-yields] prints the
   may-yield verdict for every harvested definition and exits. *)

let usage =
  "simlint [--rules D1,..] [--disable D1,..] [--json] [--dump-yields] PATH.."

module Lint = Simlint_lib.Lint
module Callgraph = Simlint_lib.Callgraph

let () =
  let roots = ref [] in
  let only = ref None in
  let disabled = ref [] in
  let json = ref false in
  let dump_yields = ref false in
  let parse_rule_list s =
    String.split_on_char ',' s
    |> List.map (fun tok ->
           match Lint.rule_of_id (String.trim tok) with
           | Some r -> r
           | None ->
               prerr_endline ("simlint: unknown rule id " ^ String.trim tok);
               exit 2)
  in
  let spec =
    [
      ( "--rules",
        Arg.String (fun s -> only := Some (parse_rule_list s)),
        "IDS run only these comma-separated rules (default: all)" );
      ( "--disable",
        Arg.String (fun s -> disabled := parse_rule_list s @ !disabled),
        "IDS disable these comma-separated rules" );
      ( "--json",
        Arg.Set json,
        " emit all findings (suppressed included) as JSON on stdout" );
      ( "--dump-yields",
        Arg.Set dump_yields,
        " print the may-yield verdict per harvested definition and exit" );
    ]
  in
  Arg.parse spec (fun p -> roots := p :: !roots) usage;
  if !roots = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let rules =
    let base = match !only with Some rs -> rs | None -> Lint.all_rules in
    List.filter (fun r -> not (List.mem r !disabled)) base
  in
  let cfg = { Lint.default_config with rules } in
  let files = Lint.collect_ml_files (List.rev !roots) in
  if !dump_yields then begin
    match Lint.dump_yields files with
    | graph ->
        List.iter
          (fun (name, yields) ->
            Printf.printf "%-50s %s\n" name (if yields then "yields" else "-"))
          (Callgraph.dump graph);
        Printf.printf
          "simlint: %d definitions in %d modules (%d may-yield)\n"
          (Callgraph.def_count graph)
          (Callgraph.module_count graph)
          (List.length
             (List.filter (fun (_, y) -> y) (Callgraph.dump graph)))
    | exception Lint.Parse_error (file, msg) ->
        Printf.eprintf "simlint: %s: parse error\n%s\n" file msg;
        exit 2
  end
  else
    match Lint.lint_files_all cfg files with
    | all ->
        let active = List.filter (fun f -> f.Lint.suppressed = None) all in
        if !json then print_string (Lint.render_json all)
        else begin
          List.iter (fun f -> Format.printf "%a@." Lint.pp_finding f) active;
          if active = [] then
            Printf.printf "simlint: %d files clean, %d suppression(s) (%s)\n"
              (List.length files)
              (List.length all - List.length active)
              (String.concat "," (List.map Lint.rule_id rules))
          else
            Printf.eprintf "simlint: %d finding(s) in %d files\n"
              (List.length active) (List.length files)
        end;
        if active <> [] then exit 1
    | exception Lint.Parse_error (file, msg) ->
        Printf.eprintf "simlint: %s: parse error\n%s\n" file msg;
        exit 2
