(* Process-side capability for accessing the shared memories.

   A [Memclient.t] is bound to one process id at creation: every operation
   it issues carries that id, so a Byzantine *program* holding the
   capability can still only act as itself (the permission check at the
   memory sees the true caller).

   Blocking single-memory operations plus the parallel patterns the
   paper's algorithms use (issue to all memories, wait for a quorum). *)

open Rdma_sim
open Rdma_obs

type t = {
  pid : int;
  actor : string;
  obs : Obs.t option;
  memories : Memory.t array;
}

let create ~pid ~memories =
  {
    pid;
    actor = Printf.sprintf "p%d" pid;
    (* All memories share one engine, hence one collector. *)
    obs = (if Array.length memories = 0 then None else Some (Memory.obs memories.(0)));
    memories;
  }

(* Client-side span around a blocking operation: the caller's view of the
   round trip, on the process track (the memory-side [mem.*] span sits on
   the memory track). *)
let client_span t name f =
  match t.obs with
  | None -> f ()
  | Some obs -> Obs.with_span obs ~actor:t.actor ~cat:"rdma" name f

let pid t = t.pid

let obs t = t.obs

let memory_count t = Array.length t.memories

let mem t i = t.memories.(i)

(* Majority of the memories: ⌊m/2⌋ + 1. *)
let majority t = (Array.length t.memories / 2) + 1

(* {2 Single-memory blocking operations} *)

let write t ~mem ~region ~reg value =
  client_span t "rdma.write" (fun () ->
      Ivar.await
        (Memory.write_async t.memories.(mem) ~from:t.pid ~region ~reg value))

let read t ~mem ~region ~reg =
  client_span t "rdma.read" (fun () ->
      Ivar.await (Memory.read_async t.memories.(mem) ~from:t.pid ~region ~reg))

let change_permission t ~mem ~region ~perm =
  client_span t "rdma.perm" (fun () ->
      Ivar.await
        (Memory.change_permission_async t.memories.(mem) ~from:t.pid ~region ~perm))

(* {2 Parallel all-memories operations} *)

let write_all_async t ~region ~reg value =
  Array.map (fun m -> Memory.write_async m ~from:t.pid ~region ~reg value) t.memories

let read_all_async t ~region ~reg =
  Array.map (fun m -> Memory.read_async m ~from:t.pid ~region ~reg) t.memories

let change_permission_all_async t ~region ~perm =
  Array.map (fun m -> Memory.change_permission_async m ~from:t.pid ~region ~perm) t.memories

(* [write_quorum t ~region ~reg v] writes to every memory and waits for a
   majority of responses.  Returns [Ack] iff every response received was
   an ack — a nak means some memory refused (permission lost), which the
   paper's algorithms treat as "give up". *)
let write_quorum t ~region ~reg value =
  client_span t "rdma.write_quorum" (fun () ->
      let responses =
        Par.await_k (write_all_async t ~region ~reg value) (majority t)
      in
      if List.for_all (fun (_, r) -> r = Memory.Ack) responses then Memory.Ack
      else Memory.Nak)

(* [read_quorum t ~region ~reg] reads from every memory, waits for a
   majority of responses, and returns them as [(memory index, result)]
   pairs. *)
let read_quorum t ~region ~reg =
  client_span t "rdma.read_quorum" (fun () ->
      Par.await_k (read_all_async t ~region ~reg) (majority t))

let change_permission_quorum t ~region ~perm =
  client_span t "rdma.perm_quorum" (fun () ->
      Par.await_k (change_permission_all_async t ~region ~perm) (majority t))

(* {2 Fences}

   The explicit flush of the weak ordering models (see [Ordering]): a
   fence on a memory completes once every op this client issued there
   before the fence has been applied.  Under [Ordering.Strict] every
   per-memory fence is an already-full ivar, and [fence] short-circuits
   entirely — no span, no suspension — so algorithms fence
   unconditionally at zero strict-mode cost. *)

let fence_all_async t =
  Array.map (fun m -> Memory.fence_async m ~from:t.pid) t.memories

let fence t ~mem =
  if Memory.ordering t.memories.(mem) = Ordering.Strict then Memory.Ack
  else
    client_span t "rdma.fence" (fun () ->
        Ivar.await (Memory.fence_async t.memories.(mem) ~from:t.pid))

(* {2 Single-memory batched write (state transfer)} *)

let write_many t ~mem ~region ~values =
  client_span t "rdma.write_many" (fun () ->
      Ivar.await
        (Memory.write_many_async t.memories.(mem) ~from:t.pid ~region ~values))
