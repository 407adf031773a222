(* A replicated key-value store: the state machine applied to the
   committed entries of the protected-memory log. *)

type command = Set of string * string | Delete of string | Noop

let encode_command = function
  | Set (k, v) -> Rdma_consensus.Codec.join3 "set" k v
  | Delete k -> Rdma_consensus.Codec.join2 "del" k
  | Noop -> Rdma_consensus.Codec.join [ "noop" ]

let decode_command s =
  match Rdma_consensus.Codec.split s with
  | Some [ "set"; k; v ] -> Some (Set (k, v))
  | Some [ "del"; k ] -> Some (Delete k)
  | Some [ "noop" ] -> Some Noop
  | _ -> None

type t = { table : (string, string) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let apply t = function
  | Set (k, v) -> Hashtbl.replace t.table k v
  | Delete k -> Hashtbl.remove t.table k
  | Noop -> ()

let apply_encoded t cmd =
  match decode_command cmd with Some c -> apply t c | None -> ()

let get t k = Hashtbl.find_opt t.table k

(* Materialize the store from a replica's applied log. *)
let of_log entries =
  let t = create () in
  List.iter (fun (_, cmd) -> apply_encoded t cmd) entries;
  t

let bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table [] |> List.sort compare

(* Engine-agnostic hookups: materialize from, or live-follow, a packed
   replica of ANY consensus engine. *)
let of_replica run = of_log (Consensus_engine.applied run)

let attach run =
  let t = of_log (Consensus_engine.applied run) in
  Consensus_engine.on_commit run (fun ~index:_ ~cmd -> apply_encoded t cmd);
  t
