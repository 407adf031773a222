(* A complete simulated M&M system: n processes, m memories, a network,
   signatures, and an Ω oracle, with fault injection.

   ['m] is the algorithm's message type.  Each algorithm run builds one
   cluster, registers regions on the memories, spawns its process
   programs, injects the schedule's faults, and runs the engine to
   quiescence. *)

open Rdma_sim
open Rdma_mem
open Rdma_net
open Rdma_crypto
open Rdma_obs

type 'm t = {
  engine : Engine.t;
  n : int;
  m : int;
  keychain : Keychain.t;
  memories : Memory.t array;
  net : 'm Network.t;
  omega : Omega.t;
  fibers : Engine.fiber option array;
  sub_fibers : Engine.fiber list array;
  crashed : bool array;
  byzantine : bool array;
  (* the program each pid was spawned with, for machine restarts: a
     restarted process re-runs its program from the top — no state
     survives except what the program itself recovers from the memories *)
  programs : (int -> unit) option array;
}

(* The capability bundle handed to a process program.  This is all a
   program (honest or Byzantine) ever sees of the system. *)
type 'm ctx = {
  pid : int;
  cluster_n : int;
  cluster_m : int;
  ctx_engine : Engine.t;
  client : Memclient.t;
  ep : 'm Network.endpoint;
  signer : Keychain.signer;
  chain : Keychain.t;
  ctx_omega : Omega.t;
  ctx_obs : Obs.t;
  (* Spawn an auxiliary fiber belonging to this process: it dies with the
     process when a crash is injected. *)
  spawn_sub : string -> (unit -> unit) -> unit;
}

let detection_delay = 8.0

(* Eventually-accurate failure detection: after the detection delay, if
   Ω still points at a crashed process, repoint to the lowest-id live
   correct one (falling back to any live process when every survivor is
   Byzantine — a configuration outside every fault model, but Ω should
   not dangle).  Choosing the target at fire time (not at scheduling
   time) keeps Ω correct when several processes crash together. *)
let schedule_repoint t =
  Engine.schedule t.engine detection_delay (fun () ->
      if t.crashed.(Omega.leader t.omega) then begin
        let live = List.filter (fun p -> not t.crashed.(p)) (List.init t.n Fun.id) in
        match List.filter (fun p -> not t.byzantine.(p)) live with
        | next :: _ -> Omega.set_leader t.omega next
        | [] -> (
            match live with
            | next :: _ -> Omega.set_leader t.omega next
            | [] -> ())
      end)

let create ?(seed = 1) ?(legal_change = Permission.static_permissions) ~n ~m
    () =
  let engine = Engine.create ~seed () in
  let keychain = Keychain.create ~seed ~n () in
  let obs = Engine.obs engine in
  Keychain.set_hooks keychain
    ~on_sign:(fun pid ->
      Obs.count obs "crypto.signs" 1;
      Obs.count obs (Printf.sprintf "sigs.p%d" pid) 1;
      Obs.event obs ~actor:(Printf.sprintf "p%d" pid) (Event.Sign { pid }))
    ~on_verify:(fun ~ok ->
      Obs.count obs "crypto.verifies" 1;
      Obs.event obs ~actor:"crypto" (Event.Verify { ok }));
  (* The run's seed also keys each memory's per-op ordering stream, so a
     chaos schedule replays its weak-mode lag/reorder decisions
     verbatim. *)
  let memories =
    Array.init m (fun mid ->
        Memory.create ~legal_change ~seed ~engine ~mid ())
  in
  let net = Network.create ~engine ~n () in
  let omega = Omega.create ~engine ~initial:0 in
  let t =
    {
      engine;
      n;
      m;
      keychain;
      memories;
      net;
      omega;
      fibers = Array.make n None;
      sub_fibers = Array.make n [];
      crashed = Array.make n false;
      byzantine = Array.make n false;
      programs = Array.make n None;
    }
  in
  (* Eventual accuracy covers leadership changes too: if Ω is ever
     pointed at an already-crashed process (a test-injected flap), the
     failure detector corrects it after the detection delay, exactly as
     it does for a crash of the current leader. *)
  let rec watch () =
    Omega.on_change t.omega
      ~want:(fun _ -> true)
      (fun () ->
        if t.crashed.(Omega.leader t.omega) then schedule_repoint t;
        watch ())
  in
  watch ();
  t

let engine t = t.engine

let n t = t.n

let m t = t.m

let memory t i = t.memories.(i)

(* Install a memory-ordering model on every memory — the chaos harness
   applies this at schedule-install time (t = 0) via
   [Fault.Set_ordering]. *)
let set_ordering t mode = Array.iter (fun m -> Memory.set_ordering m mode) t.memories

(* The model in force: the memories always share one mode ([Strict]
   with m = 0). *)
let ordering t =
  if Array.length t.memories = 0 then Ordering.Strict
  else Memory.ordering t.memories.(0)

let net t = t.net

let omega t = t.omega

let keychain t = t.keychain

let obs t = Engine.obs t.engine

let stats = obs

(* Create the same region (name, permission, registers) on every memory —
   the replicated layout all the paper's algorithms use. *)
let add_region_everywhere t ~name ~perm ~registers =
  Array.iter (fun mem -> Memory.add_region mem ~name ~perm ~registers) t.memories

(* The same, for a region laid out on first access: every memory shares
   the one enumeration, forced at most once. *)
let add_region_family_everywhere t ~name ~perm ~member ~registers =
  Array.iter
    (fun mem -> Memory.add_region_family mem ~name ~perm ~member ~registers)
    t.memories

let ctx t pid =
  let spawn_sub name f =
    if not t.crashed.(pid) then begin
      let fiber = Engine.spawn t.engine (Printf.sprintf "p%d.%s" pid name) f in
      t.sub_fibers.(pid) <- fiber :: t.sub_fibers.(pid)
    end
  in
  {
    pid;
    cluster_n = t.n;
    cluster_m = t.m;
    ctx_engine = t.engine;
    client = Memclient.create ~pid ~memories:t.memories;
    ep = Network.endpoint t.net pid;
    signer = Keychain.signer t.keychain pid;
    chain = t.keychain;
    ctx_omega = t.omega;
    ctx_obs = Engine.obs t.engine;
    spawn_sub;
  }

let spawn t ~pid program =
  if t.fibers.(pid) <> None then invalid_arg "Cluster.spawn: pid already running";
  (* Every (re)start builds a fresh ctx: a restarted process holds no
     pre-crash capability state. *)
  t.programs.(pid) <- Some (fun pid -> program (ctx t pid));
  let c = ctx t pid in
  let fiber = Engine.spawn t.engine (Printf.sprintf "p%d" pid) (fun () -> program c) in
  t.fibers.(pid) <- Some fiber

(* Spawn a process running an adversarial program.  It gets the same
   capabilities as an honest process — no more: it cannot forge
   signatures, spoof senders, or bypass memory permissions. *)
let spawn_byzantine t ~pid program =
  t.byzantine.(pid) <- true;
  spawn t ~pid program

let is_byzantine t pid = t.byzantine.(pid)

let is_crashed t pid = t.crashed.(pid)

let correct_pids t =
  List.filter
    (fun p -> (not t.crashed.(p)) && not t.byzantine.(p))
    (List.init t.n Fun.id)

let byzantine_pids t =
  List.filter (fun p -> t.byzantine.(p)) (List.init t.n Fun.id)

let crash_process t pid =
  if not t.crashed.(pid) then begin
    t.crashed.(pid) <- true;
    (match t.fibers.(pid) with Some f -> Engine.cancel f | None -> ());
    List.iter Engine.cancel t.sub_fibers.(pid);
    schedule_repoint t
  end

let crash_memory t mid = Memory.crash t.memories.(mid)

(* Bring a crashed memory back, empty, under a fresh epoch (see
   [Memory.restart]).  A benign no-op when the memory is not crashed, so
   a shrunk fault schedule that dropped the paired crash stays valid. *)
let restart_memory t mid =
  let mem = t.memories.(mid) in
  if Memory.is_crashed mem then Memory.restart mem

(* Restart a crashed process: re-run the program it was spawned with,
   from the top, with a fresh ctx.  Only state the program explicitly
   recovers (from the memories or its spawn-time closure) survives.  A
   no-op when the process is not crashed or was never spawned. *)
let restart_process t pid =
  match t.programs.(pid) with
  | Some program when t.crashed.(pid) ->
      t.crashed.(pid) <- false;
      t.sub_fibers.(pid) <- [];
      let fiber =
        Engine.spawn t.engine (Printf.sprintf "p%d" pid) (fun () -> program pid)
      in
      t.fibers.(pid) <- Some fiber
  | _ -> ()

(* A machine hosts one process and one memory (the M&M pairing used by
   Fault.Crash_machine): restart both. *)
let restart_machine t ~pid ~mid =
  restart_memory t mid;
  restart_process t pid

(* The run is the profiler's root frame: every fiber scope, crypto
   scope and root-attributed counter of this cluster's execution nests
   under [cluster.run] in perf snapshots and flamegraphs. *)
let run t = Prof.scope "cluster.run" (fun () -> Engine.run t.engine)

(* Re-raise the first exception that escaped a fiber, if any — tests call
   this so assertion failures inside process programs fail the test. *)
let check_errors t =
  match List.rev (Engine.errors t.engine) with
  | [] -> ()
  | (name, e) :: _ ->
      failwith (Printf.sprintf "fiber %s raised: %s" name (Printexc.to_string e))
