(* Quickstart: one Fast & Robust consensus instance.

   Three processes (one may be Byzantine) and three memories (one may
   crash) agree on a value.  In this failure-free run the leader decides
   after a single replicated RDMA write — two network delays — having
   computed exactly one signature (Theorem 4.9 / Section 4.2).

     dune exec examples/quickstart.exe *)

open Rdma_consensus

let () =
  let n = 3 and m = 3 in
  let inputs = [| "apply-update-42"; "apply-update-17"; "apply-update-99" |] in
  Fmt.pr "Fast & Robust: n=%d processes (tolerates f=%d Byzantine), m=%d memories@."
    n ((n - 1) / 2) m;
  Array.iteri (fun pid v -> Fmt.pr "  p%d proposes %S@." pid v) inputs;
  let report, _, _ = Fast_robust.run ~n ~m ~inputs () in
  Fmt.pr "@.Decisions:@.";
  Array.iteri
    (fun pid d ->
      match d with
      | Some { Report.value; at } -> Fmt.pr "  p%d decided %S at %.1f delays@." pid value at
      | None -> Fmt.pr "  p%d did not decide@." pid)
    report.Report.decisions;
  Fmt.pr "@.Agreement: %b, Validity: %b@." (Report.agreement_ok report)
    (Report.validity_ok report ~inputs);
  Fmt.pr "First decision: %.1f network delays (the paper's 2-deciding fast path)@."
    (Option.get (Report.first_decision_time report));
  Fmt.pr "Signatures on the fast path: %d@."
    (Report.named report "sigs_at_fast_decision");
  Fmt.pr "Totals: %d memory ops, %d messages, %d signatures@." report.Report.mem_ops
    report.Report.messages report.Report.signatures
