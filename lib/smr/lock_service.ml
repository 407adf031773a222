(* A distributed lock service: a second state machine over the
   protected-memory log.

   Locks are granted in request order (FIFO per lock) and every grant
   carries a monotonically increasing *fencing token*, so that even a
   client that acquires a lock and then stalls can be safely fenced off
   by the storage it talks to — the standard discipline for locks built
   on replicated logs.  The determinism of the state machine plus the
   agreement of the log is what makes replicas dispense identical
   grants. *)

type command =
  | Acquire of { lock : string; owner : string }
  | Release of { lock : string; owner : string }

let encode_command = function
  | Acquire { lock; owner } -> Rdma_consensus.Codec.join3 "acq" lock owner
  | Release { lock; owner } -> Rdma_consensus.Codec.join3 "rel" lock owner

let decode_command s =
  match Rdma_consensus.Codec.split3 s with
  | Some ("acq", lock, owner) -> Some (Acquire { lock; owner })
  | Some ("rel", lock, owner) -> Some (Release { lock; owner })
  | _ -> None

type lock_state = {
  mutable holder : (string * int) option; (* owner, fencing token *)
  waiters : string Queue.t;
}

type t = {
  locks : (string, lock_state) Hashtbl.t;
  mutable next_token : int;
  mutable grants : (string * string * int) list; (* (lock, owner, token), newest first *)
}

let create () = { locks = Hashtbl.create 16; next_token = 0; grants = [] }

let state_of t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some s -> s
  | None ->
      let s = { holder = None; waiters = Queue.create () } in
      Hashtbl.add t.locks lock s;
      s

let grant t lock s owner =
  t.next_token <- t.next_token + 1;
  s.holder <- Some (owner, t.next_token);
  t.grants <- (lock, owner, t.next_token) :: t.grants

let apply t = function
  | Acquire { lock; owner } -> (
      let s = state_of t lock in
      match s.holder with
      | None -> grant t lock s owner
      | Some (current, _) when String.equal current owner -> () (* reentrant no-op *)
      | Some _ ->
          if not (Queue.fold (fun acc w -> acc || String.equal w owner) false s.waiters)
          then Queue.push owner s.waiters)
  | Release { lock; owner } -> (
      let s = state_of t lock in
      match s.holder with
      | Some (current, _) when String.equal current owner -> (
          s.holder <- None;
          (* hand over to the next waiter, if any *)
          match Queue.take_opt s.waiters with
          | Some next -> grant t lock s next
          | None -> ())
      | Some _ | None -> () (* releasing a lock one does not hold: no-op *))

let apply_encoded t cmd =
  match decode_command cmd with Some c -> apply t c | None -> ()

let holder t lock =
  match Hashtbl.find_opt t.locks lock with Some s -> s.holder | None -> None

let waiting t lock =
  match Hashtbl.find_opt t.locks lock with
  | Some s -> Queue.fold (fun acc w -> w :: acc) [] s.waiters |> List.rev
  | None -> []

(* All grants ever made, oldest first, as (lock, owner, token). *)
let grant_history t = List.rev t.grants

(* Materialize from a replica's applied log. *)
let of_log entries =
  let t = create () in
  List.iter (fun (_, cmd) -> apply_encoded t cmd) entries;
  t

(* Engine-agnostic hookups, as in {!Kv}. *)
let of_replica run = of_log (Consensus_engine.applied run)
