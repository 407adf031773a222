(* simlint's own test suite: every rule fires exactly where the bad
   fixtures say it does, stays quiet on the clean fixtures, and each
   suppression form ([@simlint.allow] on expressions, bindings and
   patterns, and floating [@@@simlint.allow]) actually suppresses.  Findings are compared as (file, rule, line) triples so a
   rule firing on the wrong line is a test failure, not a pass. *)

module Lint = Simlint_lib.Lint
module Callgraph = Simlint_lib.Callgraph

let fixture name = Filename.concat "fixtures" name

(* Fixtures play the role of the protocol-handler trees for D3, the
   task-parallel trees for D6 and the fiber trees for Y1/Y2/F1; nothing
   in them is exempt as engine code. *)
let cfg =
  {
    Lint.default_config with
    proto_dirs = [ "fixtures" ];
    mutable_dirs = [ "fixtures" ];
    sim_dirs = [];
    yield_dirs = [ "fixtures" ];
    y2_dirs = [ "fixtures" ];
    fence_exempt_dirs = [];
  }

let all_fixtures = Lint.collect_ml_files [ "fixtures" ]

let summarize findings =
  List.map
    (fun f -> (Filename.basename f.Lint.file, Lint.rule_id f.Lint.rule, f.Lint.line))
    findings

let finding_t = Alcotest.(list (triple string string int))

let lint ?(cfg = cfg) files = summarize (Lint.lint_files cfg files)

(* One pass over the whole corpus, like the CI run over lib/ bin/: the
   union of every expected firing, in (file, line) order, and nothing
   else — in particular nothing from the clean_* and allow_* files. *)
let test_corpus () =
  Alcotest.check finding_t "whole fixture corpus"
    [
      ("bad_d1.ml", "D1", 2);
      ("bad_d1.ml", "D1", 3);
      ("bad_d1.ml", "D1", 4);
      ("bad_d1.ml", "D1", 5);
      ("bad_d1.ml", "D1", 6);
      ("bad_d1.ml", "D1", 7);
      ("bad_d1.ml", "D1", 8);
      ("bad_d2.ml", "D2", 2);
      ("bad_d2.ml", "D2", 3);
      ("bad_d2.ml", "D2", 4);
      ("bad_d3.ml", "D3", 7);
      ("bad_d3.ml", "D3", 9);
      ("bad_d4.ml", "D4", 2);
      ("bad_d4.ml", "D4", 3);
      ("bad_d5.ml", "D5", 2);
      ("bad_d5.ml", "D5", 3);
      ("bad_d6.ml", "D6", 2);
      ("bad_d6.ml", "D6", 3);
      ("bad_d6.ml", "D6", 4);
      ("bad_d6.ml", "D6", 5);
      ("bad_d6.ml", "D6", 6);
      ("bad_d6.ml", "D6", 7);
      ("bad_f1.ml", "F1", 6);
      ("bad_f1.ml", "F1", 13);
      ("bad_f1.ml", "F1", 20);
      ("bad_wallclock.ml", "D1", 4);
      ("bad_wallclock.ml", "D1", 5);
      ("bad_y1.ml", "Y1", 11);
      ("bad_y1.ml", "Y1", 17);
      ("bad_y1.ml", "Y1", 23);
      ("bad_y2.mli", "Y2", 5);
      ("bad_y2.mli", "Y2", 7);
      ("stale_allow.ml", "A1", 2);
      ("tsend_prefix.ml", "Y1", 18);
      ("uses_proto.ml", "D3", 5);
      ("wrong_rule_allow.ml", "A1", 3);
      ("wrong_rule_allow.ml", "D4", 4);
      ("wrong_rule_allow.ml", "D4", 5);
    ]
    (lint all_fixtures)

(* lib/sim is exempt from D1/D4: the same bad files are clean when the
   config classifies the fixture tree as the engine. *)
let test_sim_exemption () =
  let sim_cfg = { cfg with sim_dirs = [ "fixtures" ] } in
  Alcotest.check finding_t "D1/D4 exempt under lib/sim" []
    (lint ~cfg:sim_cfg [ fixture "bad_d1.ml"; fixture "bad_d4.ml" ])

(* D3 only applies inside the designated protocol trees. *)
let test_proto_scope () =
  let no_proto = { cfg with proto_dirs = [ "lib/core/" ] } in
  Alcotest.check finding_t "D3 silent outside protocol dirs" []
    (lint ~cfg:no_proto
       [ fixture "bad_d3.ml"; fixture "proto_types.ml"; fixture "uses_proto.ml" ])

(* D6 only applies inside the designated task-parallel trees. *)
let test_mutable_scope () =
  let no_mut = { cfg with mutable_dirs = [ "lib/"; "bench/" ] } in
  Alcotest.check finding_t "D6 silent outside mutable dirs" []
    (lint ~cfg:no_mut [ fixture "bad_d6.ml" ])

(* Y1/F1 only apply inside the designated fiber trees, and the
   fence-exempt tree (lib/rdma, which implements the fences) drops F1
   but keeps Y1. *)
let test_yield_scope () =
  let no_yield = { cfg with yield_dirs = [ "lib/"; "bench/" ] } in
  Alcotest.check finding_t "Y1/F1 silent outside yield dirs" []
    (lint ~cfg:no_yield [ fixture "bad_y1.ml"; fixture "bad_f1.ml" ]);
  let exempt = { cfg with fence_exempt_dirs = [ "fixtures" ] } in
  Alcotest.check finding_t "F1 exempt, Y1 kept, inside lib/rdma"
    [ ("bad_y1.ml", "Y1", 11); ("bad_y1.ml", "Y1", 17); ("bad_y1.ml", "Y1", 23) ]
    (lint ~cfg:exempt [ fixture "bad_y1.ml"; fixture "bad_f1.ml" ])

(* Each rule is individually toggleable. *)
let test_rule_toggle () =
  List.iter
    (fun (rule, files) ->
      let files = List.map fixture files @ [ fixture "proto_types.ml" ] in
      let others = List.filter (fun r -> r <> rule) Lint.all_rules in
      Alcotest.check finding_t
        (Printf.sprintf "%s disabled" (Lint.rule_id rule))
        []
        (lint ~cfg:{ cfg with rules = others } files);
      Alcotest.(check bool)
        (Printf.sprintf "%s alone still fires" (Lint.rule_id rule))
        true
        (lint ~cfg:{ cfg with rules = [ rule ] } files <> []))
    [
      (Lint.D1, [ "bad_d1.ml" ]);
      (Lint.D2, [ "bad_d2.ml" ]);
      (Lint.D3, [ "bad_d3.ml" ]);
      (Lint.D4, [ "bad_d4.ml" ]);
      (Lint.D5, [ "bad_d5.ml" ]);
      (Lint.D6, [ "bad_d6.ml" ]);
      (Lint.Y1, [ "bad_y1.ml" ]);
      (Lint.Y2, [ "bad_y2.ml"; "bad_y2.mli" ]);
      (Lint.F1, [ "bad_f1.ml" ]);
    ]

(* {2 The interprocedural rules} *)

(* Y1 fires on every read->yield->dependent-write shape (field, ref,
   array slot) and on none of the clean twins. *)
let test_y1 () =
  Alcotest.check finding_t "Y1 corpus"
    [ ("bad_y1.ml", "Y1", 11); ("bad_y1.ml", "Y1", 17); ("bad_y1.ml", "Y1", 23) ]
    (lint [ fixture "bad_y1.ml"; fixture "clean_y1.ml"; fixture "allow_y1.ml" ])

(* The PR 2 Trusted.t_send bug, pinned: the pre-fix body (history append
   after the broadcast suspension) fires, the shipped fix is silent. *)
let test_tsend_regression () =
  Alcotest.check finding_t "pre-fix t_send flagged"
    [ ("tsend_prefix.ml", "Y1", 18) ]
    (lint [ fixture "tsend_prefix.ml" ]);
  Alcotest.check finding_t "fixed t_send silent" []
    (lint [ fixture "tsend_fixed.ml" ])

(* Y2 catches both directions of contract drift and is quiet when the
   .mli matches the computed may-yield verdicts. *)
let test_y2 () =
  Alcotest.check finding_t "Y2 drift both directions"
    [ ("bad_y2.mli", "Y2", 5); ("bad_y2.mli", "Y2", 7) ]
    (lint
       [ fixture "bad_y2.ml"; fixture "bad_y2.mli";
         fixture "clean_y2.ml"; fixture "clean_y2.mli" ])

(* F1 fires on a direct scrutinee, a let-bound completion variable and
   an attributed in-tree wrapper; a fence or permission switch between
   issue and branch sanctions the check. *)
let test_f1 () =
  Alcotest.check finding_t "F1 corpus"
    [ ("bad_f1.ml", "F1", 6); ("bad_f1.ml", "F1", 13); ("bad_f1.ml", "F1", 20) ]
    (lint [ fixture "bad_f1.ml"; fixture "clean_f1.ml"; fixture "allow_f1.ml" ])

(* The may-yield call graph itself: seeds, the transitive fixpoint, and
   a negative verdict. *)
let test_may_yield () =
  let units =
    Lint.parse_files
      [ fixture "tsend_prefix.ml"; fixture "bad_y2.ml"; fixture "clean_f1.ml" ]
  in
  let impls =
    List.filter_map
      (function p, Lint.Impl s -> Some (p, s) | _, Lint.Intf _ -> None)
      units
  in
  let g = Callgraph.build impls in
  let check name id expect =
    Alcotest.(check bool) name expect (Callgraph.may_yield g id)
  in
  check "seeded primitive" ("Engine", "sleep") true;
  check "direct caller of a seed" ("Tsend_prefix", "broadcast") true;
  check "transitive caller" ("Tsend_prefix", "t_send") true;
  check "pure function" ("Bad_y2", "pure") false;
  check "blocking memory op" ("Memclient", "write") true

(* {2 Suppression} *)

(* The attribute-based suppressions: the allow_* twins of the bad_*
   files carry the same flagged code plus [@simlint.allow] and must be
   silent (the bad_* twins prove the un-suppressed code fires). *)
let test_attribute_suppression () =
  Alcotest.check finding_t "attributes suppress D1/D2/D3/D5/D6/Y1/Y2/F1" []
    (lint
       [ fixture "allow_d1.ml"; fixture "allow_d2.ml"; fixture "allow_d3.ml";
         fixture "allow_d5.ml"; fixture "allow_d6.ml"; fixture "allow_y1.ml";
         fixture "allow_y2.ml"; fixture "allow_y2.mli"; fixture "allow_f1.ml" ])

(* Suppressed findings are retained with their recorded justification —
   the auditable artifact a bare "it's fine" comment would not be. *)
let test_justification_recorded () =
  let all = Lint.lint_files_all cfg [ fixture "allow_y1.ml" ] in
  Alcotest.(check (list (option string)))
    "justification text"
    [ Some "single-writer: only the owner fiber bumps epoch" ]
    (List.map (fun f -> f.Lint.suppressed) all)

(* An unrelated allow id must not silence a different rule. *)
let test_allow_is_rule_specific () =
  Alcotest.check finding_t "D1 allow does not hide D4"
    [
      ("wrong_rule_allow.ml", "A1", 3);
      ("wrong_rule_allow.ml", "D4", 4);
      ("wrong_rule_allow.ml", "D4", 5);
    ]
    (lint [ fixture "wrong_rule_allow.ml" ])

(* A1: an attribute matching no finding is an error; it is moot (not
   stale) when the rule it grants is disabled, and off with A1 itself. *)
let test_stale_suppression () =
  Alcotest.check finding_t "stale attribute flagged"
    [ ("stale_allow.ml", "A1", 2) ]
    (lint [ fixture "stale_allow.ml" ]);
  Alcotest.check finding_t "no A1 when the granted rule is disabled" []
    (lint
       ~cfg:{ cfg with rules = List.filter (fun r -> r <> Lint.D1) Lint.all_rules }
       [ fixture "stale_allow.ml" ]);
  Alcotest.check finding_t "no A1 when A1 is disabled" []
    (lint
       ~cfg:{ cfg with rules = List.filter (fun r -> r <> Lint.A1) Lint.all_rules }
       [ fixture "stale_allow.ml" ]);
  Alcotest.check finding_t "used attribute is not stale" []
    (lint [ fixture "allow_y1.ml" ])

(* {2 JSON output} *)

(* --json golden output: stable field order, stable sort, suppressed
   findings included with their justification. *)
let test_json_golden () =
  let golden =
    let ic = open_in (fixture "golden.json") in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let actual =
    Lint.render_json
      (Lint.lint_files_all cfg
         [ fixture "allow_f1.ml"; fixture "bad_y2.ml"; fixture "bad_y2.mli" ])
  in
  Alcotest.(check string) "golden --json output" golden actual

let () =
  Alcotest.run "simlint"
    [
      ( "rules",
        [
          Alcotest.test_case "corpus" `Quick test_corpus;
          Alcotest.test_case "sim exemption" `Quick test_sim_exemption;
          Alcotest.test_case "proto scope" `Quick test_proto_scope;
          Alcotest.test_case "mutable-state scope" `Quick test_mutable_scope;
          Alcotest.test_case "yield scope" `Quick test_yield_scope;
          Alcotest.test_case "rule toggle" `Quick test_rule_toggle;
        ] );
      ( "interprocedural",
        [
          Alcotest.test_case "Y1 atomicity" `Quick test_y1;
          Alcotest.test_case "t_send regression" `Quick test_tsend_regression;
          Alcotest.test_case "Y2 contract drift" `Quick test_y2;
          Alcotest.test_case "F1 fence discipline" `Quick test_f1;
          Alcotest.test_case "may-yield graph" `Quick test_may_yield;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "attributes" `Quick test_attribute_suppression;
          Alcotest.test_case "justification" `Quick test_justification_recorded;
          Alcotest.test_case "rule specific" `Quick test_allow_is_rule_specific;
          Alcotest.test_case "stale suppression" `Quick test_stale_suppression;
        ] );
      ( "json",
        [ Alcotest.test_case "golden output" `Quick test_json_golden ] );
    ]
