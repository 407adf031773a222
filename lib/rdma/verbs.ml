(* An ibverbs-flavoured facade over the simulated memory — the RDMA
   mechanics of Section 7 ("RDMA in practice").

   - A memory node exposes a NIC.
   - Memory regions are *registered* within a protection domain with an
     access level; registration yields a region-specific rkey.
   - Queue pairs connect one remote process to the NIC within a
     protection domain; a queue pair can reach a registered region only
     if both live in the same protection domain and the caller presents
     the region's rkey.
   - Deregistering a region revokes access instantly — the paper's
     dynamic permission revocation ("p can revoke permissions dynamically
     by simply deregistering the memory region").

   The facade is the trusted kernel of Section 7: it installs permissions
   directly (process programs cannot call it with another process's
   queue pair, because a queue pair capability carries its owner). *)

open Rdma_sim
open Rdma_obs

type access = Remote_read | Remote_write | Remote_read_write

type nic = { memory : Memory.t; mutable next_key : int; mutable next_pd : int }

type pd = { nic : nic; pd_id : int }

type mr = {
  pd : pd;
  mr_name : string; (* the underlying region *)
  rkey : string;
  access : access;
  grantees : int list;
  mutable registered : bool;
}

type qp = { qp_pd : pd; remote : int }

let nic memory = { memory; next_key = 0; next_pd = 0 }

(* Registration-table changes are control-plane events on the memory's
   track: chrome traces show revocations lining up with the naks they
   cause. *)
let emit_mr memory ~region op =
  Obs.event (Memory.obs memory)
    ~actor:(Printf.sprintf "mu%d" (Memory.id memory))
    (Event.Verbs_mr { mid = Memory.id memory; region; op })

(* pd ids are per-NIC, not global: a module-level counter would be
   shared mutable state across pooled task domains and would make rkeys
   depend on task interleaving. *)
let alloc_pd nic =
  nic.next_pd <- nic.next_pd + 1;
  { nic; pd_id = nic.next_pd }

let perm_of_access ~access ~grantees =
  match access with
  | Remote_read -> Permission.make ~read:grantees ()
  | Remote_write -> Permission.make ~write:grantees ()
  | Remote_read_write -> Permission.make ~readwrite:grantees ()

(* Register a memory region: creates the region on the memory with the
   permission implied by (access, grantees) and mints its rkey. *)
let reg_mr pd ~name ~registers ~access ~grantees =
  pd.nic.next_key <- pd.nic.next_key + 1;
  let rkey = Printf.sprintf "rkey-%d-%d-%d" pd.pd_id pd.nic.next_key (Hashtbl.hash name) in
  Memory.add_region pd.nic.memory ~name
    ~perm:(perm_of_access ~access ~grantees)
    ~registers;
  emit_mr pd.nic.memory ~region:name "reg";
  { pd; mr_name = name; rkey; access; grantees; registered = true }

let rkey mr = mr.rkey

(* Deregistration = instant revocation: the region's permission becomes
   empty, so in-flight and future operations nak. *)
let dereg_mr mr =
  if mr.registered then begin
    mr.registered <- false;
    Memory.force_permission mr.pd.nic.memory ~region:mr.mr_name ~perm:Permission.none;
    emit_mr mr.pd.nic.memory ~region:mr.mr_name "dereg"
  end

(* Re-register an existing region (e.g. to hand exclusive write access to
   a new proposer, as in the paper's crash-consensus deployment notes). *)
let rereg_mr mr ~access ~grantees =
  mr.pd.nic.next_key <- mr.pd.nic.next_key + 1;
  let rkey =
    Printf.sprintf "rkey-%d-%d-%d" mr.pd.pd_id mr.pd.nic.next_key
      (Hashtbl.hash mr.mr_name)
  in
  Memory.force_permission mr.pd.nic.memory ~region:mr.mr_name
    ~perm:(perm_of_access ~access ~grantees);
  emit_mr mr.pd.nic.memory ~region:mr.mr_name "rereg";
  let mr' = { mr with rkey; access; grantees; registered = true } in
  mr.registered <- false;
  mr'

let create_qp pd ~remote = { qp_pd = pd; remote }

(* A queue pair operation checks: same protection domain, a live
   registration, and the right rkey — then defers to the memory, whose
   own permission check enforces the access level for this caller. *)
let qp_mr_compatible qp mr key =
  mr.registered && qp.qp_pd.pd_id = mr.pd.pd_id && String.equal key mr.rkey

let rdma_read qp mr ~rkey ~reg =
  if not (qp_mr_compatible qp mr rkey) then Ivar.full Memory.Read_nak
  else
    Memory.read_async qp.qp_pd.nic.memory ~from:qp.remote ~region:mr.mr_name ~reg

let rdma_write qp mr ~rkey ~reg value =
  if not (qp_mr_compatible qp mr rkey) then Ivar.full Memory.Nak
  else
    Memory.write_async qp.qp_pd.nic.memory ~from:qp.remote ~region:mr.mr_name ~reg
      value

(* RDMA FLUSH (the ibverbs flush extension): completes once every prior
   op of this queue pair has been applied at the remote memory.  A fence
   is QP-scoped, not MR-scoped, so it needs no rkey and survives
   deregistration races — flushing after a revocation is how a prudent
   issuer learns whether its acked writes actually landed. *)
let rdma_flush qp = Memory.fence_async qp.qp_pd.nic.memory ~from:qp.remote
