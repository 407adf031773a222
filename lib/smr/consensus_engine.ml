(* The pluggable consensus-engine interface behind the SMR stack: one
   shared config record, one module type every engine implements, and an
   existential pack so [Kv]/[Lock_service]/chaos/bench code is written
   once against any engine. *)

open Rdma_mm
open Rdma_mem

type config = {
  replicas : int;
  max_entries : int;
  f_m : int option;
  max_terms : int;
  serve_until : float;
  checkpoint_every : int;
  anti_entropy_every : float;
  lease_duration : float;
  lease_violation : bool;
}

let default_config =
  {
    replicas = 3;
    max_entries = 64;
    f_m = None;
    max_terms = 32;
    serve_until = 2000.0;
    checkpoint_every = 0;
    anti_entropy_every = 0.0;
    lease_duration = 0.0;
    lease_violation = false;
  }

module type S = sig
  val name : string

  val descr : string

  val region : string

  val legal_change : config -> Permission.legal_change

  val setup_regions : 'm Cluster.t -> config -> unit

  type replica

  val spawn_replica :
    string Cluster.t -> ?cfg:config -> pid:int -> unit -> replica

  val applied_entries : replica -> (int * string) list

  val applied_count : replica -> int

  val current_term : replica -> int

  val on_commit : replica -> (index:int -> cmd:string -> unit) -> unit

  val on_recover : replica -> (term:int -> unit) -> unit

  val stop : replica -> unit

  val submit :
    string Cluster.ctx ->
    cfg:config ->
    seq:int ->
    cmd:string ->
    timeout:float ->
    int option

  val linearizable_read :
    string Cluster.ctx -> cfg:config -> seq:int -> timeout:float -> int option
end

type engine = (module S)

type running = Running : (module S with type replica = 'r) * 'r -> running

let spawn (module E : S) cluster ?cfg ~pid () =
  Running ((module E), E.spawn_replica cluster ?cfg ~pid ())

let applied (Running ((module E), r)) = E.applied_entries r

let applied_count (Running ((module E), r)) = E.applied_count r

let current_term (Running ((module E), r)) = E.current_term r

let on_commit (Running ((module E), r)) f = E.on_commit r f

let on_recover (Running ((module E), r)) f = E.on_recover r f

let stop (Running ((module E), r)) = E.stop r

let on_leader_change cluster f =
  let omega = Cluster.omega cluster in
  let rec arm () =
    Omega.on_change omega
      ~want:(fun _ -> true)
      (fun () ->
        f (Omega.leader omega);
        arm ())
  in
  arm ()
