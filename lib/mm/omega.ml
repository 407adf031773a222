(* The Ω leader oracle (Chandra–Toueg), used for liveness only.

   Safety of every algorithm in this repository holds under full
   asynchrony; Ω is the "standard additional assumption" that makes them
   terminate.  Eventually all correct processes trust the same correct
   process; before that the oracle may be wrong in arbitrary,
   test-controlled ways.

   Waiters are woken by leadership changes (no polling), so a fiber
   blocked on Ω generates no simulator events while it waits. *)

open Rdma_sim

type t = {
  engine : Engine.t;
  mutable leader : int;
  mutable waiters : ((int -> bool) * (unit -> unit)) list;
  mutable changes : (float * int) list; (* recorded history, newest first *)
}

let create ~engine ~initial =
  { engine; leader = initial; waiters = []; changes = [ (Engine.now engine, initial) ] }

let leader t = t.leader

let history t = List.rev t.changes

let set_leader t pid =
  if pid <> t.leader then begin
    t.leader <- pid;
    t.changes <- (Engine.now t.engine, pid) :: t.changes;
    let ready, rest = List.partition (fun (want, _) -> want pid) t.waiters in
    t.waiters <- rest;
    List.iter (fun (_, wake) -> wake ()) ready
  end

(* Register a one-shot callback fired at the first leadership change to a
   pid satisfying [want] (not retroactive: the current leader does not
   trigger it). *)
let on_change t ~want callback = t.waiters <- (want, callback) :: t.waiters

let wait_while t ~unwanted =
  if unwanted t.leader then
    Engine.suspend (fun _eng _fiber resume ->
        t.waiters <- ((fun pid -> not (unwanted pid)), resume) :: t.waiters)

(* Block the calling fiber until this process is the current leader
   (Algorithm 7 line 9: "wait until Ω == p"). *)
let wait_until_leader t ~me = wait_while t ~unwanted:(fun pid -> pid <> me)
