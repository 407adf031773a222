(* Pluggable RDMA memory-ordering models — see ordering.mli for the
   semantics.  This module is only the mode algebra (constructors,
   equality, string codecs); the timing itself lives in [Memory]. *)

type mode =
  | Strict
  | Completion_lag of { max_lag : float }
  | Reorder_qp of { window : float }
[@@simlint.protocol]
(* simlint D3: a new ordering mode must be handled explicitly by the
   memory scheduler, the fault codec, and the CLI parser — no silent
   wildcard fall-through that would quietly run a weak mode strictly. *)

let default_lag = 6.0

let default_window = 4.0

let completion_lag = Completion_lag { max_lag = default_lag }

let reorder_qp = Reorder_qp { window = default_window }

let equal a b =
  match (a, b) with
  | Strict, Strict -> true
  | Completion_lag { max_lag = a }, Completion_lag { max_lag = b } -> a = b
  | Reorder_qp { window = a }, Reorder_qp { window = b } -> a = b
  | (Strict | Completion_lag _ | Reorder_qp _), _ -> false

let name = function
  | Strict -> "strict"
  | Completion_lag _ -> "completion-lag"
  | Reorder_qp _ -> "reordered-qp"

let to_string = function
  | Strict -> "strict"
  | Completion_lag { max_lag } -> Printf.sprintf "completion-lag:%g" max_lag
  | Reorder_qp { window } -> Printf.sprintf "reordered-qp:%g" window

let usage =
  "expected strict | completion-lag[:MAX_LAG] | reordered-qp[:WINDOW]"

let of_string s =
  let base, param =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let float_param ~default =
    match param with
    | None -> Ok default
    | Some p -> (
        match float_of_string_opt p with
        | Some f when Float.is_finite f && f >= 0.0 -> Ok f
        | Some _ | None ->
            Error (Printf.sprintf "bad ordering parameter %S (%s)" p usage))
  in
  match String.lowercase_ascii base with
  | "strict" -> (
      match param with
      | None -> Ok Strict
      | Some _ -> Error ("strict takes no parameter (" ^ usage ^ ")"))
  | "completion-lag" ->
      Result.map
        (fun max_lag -> Completion_lag { max_lag })
        (float_param ~default:default_lag)
  | "reordered-qp" | "reordered-within-qp" ->
      Result.map
        (fun window -> Reorder_qp { window })
        (float_param ~default:default_window)
  | _ -> Error (Printf.sprintf "unknown ordering mode %S (%s)" s usage)

let pp ppf m = Format.pp_print_string ppf (to_string m)
