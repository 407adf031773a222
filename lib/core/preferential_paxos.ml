(* Preferential Paxos (Algorithm 8).

   A wrapper around Robust Backup(Paxos) with a set-up phase: every
   process T-sends its (value, evidence) to all, waits to T-receive from
   n − fP processes, adopts the value with the highest *verified*
   priority among those, and proposes the adopted value to Robust
   Backup(Paxos).

   Lemma 4.7 (priority decision): the decision is always one of the
   fP + 1 highest-priority inputs — a process can miss at most fP values
   of higher priority than the one it adopts.

   Priorities are never taken on faith: each input carries *evidence*,
   and receivers classify it themselves with a caller-supplied verifier
   (in Fast & Robust, Definition 3: a correct unanimity proof beats the
   leader's signature beats anything else).  A Byzantine process
   therefore cannot promote an arbitrary value: forging T or M evidence
   requires forging signatures. *)

open Rdma_sim
open Rdma_mm

(* A classifier maps (value, evidence) to a non-negative priority after
   verifying the evidence; unverifiable evidence must be given the bottom
   priority. *)
type classify = value:string -> evidence:string -> int

(* Trust-free default: every input is bottom priority (plain weak
   Byzantine agreement, no preference). *)
let no_priorities : classify = fun ~value:_ ~evidence:_ -> 0

(* Safety net: adopt from whatever arrived if the set-up quorum never
   completes (only reachable when > fP processes are faulty). *)
let setup_timeout = 400.0

let encode_setup ~value ~evidence = Codec.join3 Robust_backup.setup_tag value evidence

let decode_setup msg =
  match Codec.split3 msg with
  | Some (tag, value, evidence) when tag = Robust_backup.setup_tag ->
      Some (value, evidence)
  | _ -> None

type handle = { decision : Report.decision Ivar.t }

let decision h = h.decision

(* Must run inside the process's program fiber. *)
let attach (ctx : _ Cluster.ctx) ?(cfg = Robust_backup.default_config)
    ?(classify = no_priorities) ~value ~evidence () =
  let n = ctx.Cluster.cluster_n in
  let f_p = (n - 1) / 2 in
  let setup_box = Mailbox.create () in
  let transport =
    Robust_backup.make_channel ctx ~cfg
      ~route:(fun ~src ~msg ->
        match decode_setup msg with
        | Some (v, e) ->
            Mailbox.send setup_box (src, v, e);
            true
        | None -> false)
      ()
  in
  let decision = Ivar.create () in
  ctx.Cluster.spawn_sub "pp.main" (fun () ->
      (* Set-up phase: send our input to all, gather n − fP inputs
         (first message per sender), adopt the best verified one. *)
      Robust_backup.T_transport.broadcast transport (encode_setup ~value ~evidence);
      let deadline = Engine.now ctx.Cluster.ctx_engine +. setup_timeout in
      let seen = Hashtbl.create 8 in
      Hashtbl.add seen ctx.Cluster.pid (value, evidence);
      let rec gather () =
        if Hashtbl.length seen >= n - f_p then ()
        else
          let remaining = deadline -. Engine.now ctx.Cluster.ctx_engine in
          if remaining <= 0. then ()
          else
            match Mailbox.recv_timeout setup_box remaining with
            | None -> ()
            | Some (src, v, e) ->
                if not (Hashtbl.mem seen src) then Hashtbl.add seen src (v, e);
                gather ()
      in
      gather ();
      (* Order-independent max-reduction: highest priority class, ties
         broken toward the larger value — a total order, so the
         hash-bucket fold order cannot change the adopted input. *)
      let best =
        (Hashtbl.fold
           (fun _src (v, e) acc ->
             let p = classify ~value:v ~evidence:e in
             match acc with
             | Some (p0, v0) when p0 > p || (p0 = p && v0 >= v) -> acc
             | _ -> Some (p, v))
           seen None)
        [@simlint.allow "D2"]
      in
      let adopted = match best with Some (_, v) -> v | None -> value in
      (* Robust Backup(Paxos) with the adopted input. *)
      Ivar.on_fill
        (Robust_backup.spawn_paxos ctx ~cfg transport ~input:adopted)
        (fun d -> ignore (Ivar.try_fill decision d)));
  { decision }

let run ?(cfg = Robust_backup.default_config) ?(classify = no_priorities)
    ?(seed = 1) ?faults ?prepare ?(byzantine : Instance.byzantine = []) ~n ~m
    ~(inputs : (string * string) array) () =
  let report, _ =
    Instance.decide ~algorithm:"preferential-paxos"
      ~setup:(fun cluster -> Robust_backup.setup_regions cluster ~cfg ())
      ~byzantine ?faults ?prepare ~seed ~n ~m ~inputs
      ~spawn:(fun cluster pid (value, evidence) ->
        let handle = ref None in
        Cluster.spawn cluster ~pid (fun ctx ->
            handle := Some (attach ctx ~cfg ~classify ~value ~evidence ()));
        fun () -> Option.bind !handle (fun h -> Ivar.peek h.decision))
      ()
  in
  (report, List.map fst byzantine)
