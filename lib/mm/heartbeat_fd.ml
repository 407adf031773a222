(* A heartbeat-based implementation of the Ω leader oracle.

   The algorithms in this repository consume Ω as an abstraction (the
   model's "standard additional assumption" for liveness).  This module
   shows the assumption is implementable from the model's own
   primitives: every process broadcasts heartbeats; a process suspects
   any peer whose heartbeat it has not seen for [suspect_after]; its Ω
   output is the lowest-id unsuspected process.

   Guarantee (the usual one): once the network is past GST and message
   delays are bounded by [suspect_after] minus the heartbeat period,
   every correct process permanently stops suspecting every correct
   process and they all converge on the same leader — the lowest-id
   correct process.  Before GST, outputs can be arbitrary (wrong leaders,
   disagreement), which is exactly what Ω permits.

   The module is self-contained over a [Network.t] whose message type it
   owns; production compositions would multiplex heartbeats onto the
   algorithm's network. *)

open Rdma_sim
open Rdma_net

(* Virtual time at which the daemon stops. *)
let run_until = 120.0

(* Heartbeat broadcast interval. *)
let period = 2.0

(* Silence threshold. *)
let suspect_after = 7.0

type t = {
  me : int;
  n : int;
  engine : Engine.t;
  last_seen : float array;
  mutable leader_history : (float * int) list; (* newest first *)
}

let leader t =
  let now = Engine.now t.engine in
  let rec first p =
    if p >= t.n then t.me (* everyone suspected: trust self *)
    else if p = t.me || now -. t.last_seen.(p) <= suspect_after then p
    else first (p + 1)
  in
  first 0

let suspects t p =
  p <> t.me && Engine.now t.engine -. t.last_seen.(p) > suspect_after

let history t = List.rev t.leader_history

(* Spawn the heartbeat daemon for process [me]: one sender fiber and one
   receiver fiber.  [ep] must be this process's endpoint on a network
   whose messages are heartbeats (unit payloads). *)
let spawn ~engine ~(ep : unit Network.endpoint) ~n () =
  let me = Network.endpoint_pid ep in
  let t =
    {
      me;
      n;
      engine;
      last_seen = Array.make n (Engine.now engine);
      leader_history = [ (Engine.now engine, 0) ];
    }
  in
  let note_leader () =
    let l = leader t in
    match t.leader_history with
    | (_, prev) :: _ when prev = l -> ()
    | _ -> t.leader_history <- (Engine.now engine, l) :: t.leader_history
  in
  ignore
    (Engine.spawn engine
       (Printf.sprintf "fd.sender.%d" me)
       (fun () ->
         while Engine.now engine < run_until do
           Network.broadcast_others ep ();
           note_leader ();
           Engine.sleep period
         done));
  ignore
    (Engine.spawn engine
       (Printf.sprintf "fd.receiver.%d" me)
       (fun () ->
         let continue = ref true in
         while !continue do
           match Network.recv_timeout ep (run_until -. Engine.now engine) with
           | Some (src, ()) ->
               if src >= 0 && src < n then t.last_seen.(src) <- Engine.now engine;
               note_leader ();
               if Engine.now engine >= run_until then continue := false
           | None -> continue := false
         done));
  t
