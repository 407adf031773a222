(* A simulated (shared) memory node — one of the µ_i of Section 3.

   A memory holds registers grouped into named regions; each region has a
   permission checked *at the memory* when an operation arrives, so a
   Byzantine caller cannot bypass it — the trust placement of an RDMA NIC.

   Timing follows the paper's delay metric: an operation issued at time t
   arrives at the memory one [Engine.delay] later (permission check +
   state change happen atomically there) and its response reaches the
   caller one delay after that.  A crashed memory never responds: the
   result ivar is simply never filled.

   Crash–recovery extends the paper's crash-stop memories: [restart]
   brings a crashed memory back *empty*, under a fresh epoch.  Nothing
   stored before the crash survives — register contents and the
   permission state granted through legalChange are both lost.  On
   rejoin the trusted kernel restores each region's creation-time
   permission, as a NIC driver re-registers configured memory regions
   on reboot, so a pre-crash legalChange grant is never honoured again.

   Registers carry the epoch at which they were last written.  A
   register whose stamp predates the current epoch is *unrepaired*:
   reads (single or batched) nak on it, while fresh-epoch writes both
   store the value and repair the register.  An amnesiac replica thus
   answers "I don't know" instead of a silently-empty ⊥, so quorum
   readers can never mistake lost state for genuinely-unwritten state;
   repair is exactly "write the register back" (read-repair, snapshot
   installation), after which reads serve again. *)

open Rdma_sim
open Rdma_obs

type op_result = Ack | Nak

type read_result = Read of string option | Read_nak

(* A region is laid out in one of two ways.  A listed region
   ([add_region]) gets a cell for every register when it is added.  A
   family region ([add_region_family]) gets none: [member] names its
   registers, and a register's cell is created the first time an
   operation names it, as the cell a listed region would have had — ⊥,
   stamped [born].  [registers] enumerates the region; only
   [stale_registers] forces it. *)
type region = {
  region_name : string;
  registers : string list Lazy.t;
  (* a register of the region that may have no cell yet; false for
     every name of a listed region, whose registers all have cells *)
  member : string -> bool;
  (* the epoch the region was added in: the stamp of a register never
     written since *)
  born : int;
  mutable perm : Permission.t;
  (* the permission the region was created with; the kernel restores it
     on a restart *)
  genesis : Permission.t;
}

(* A register: the region it belongs to (exactly one — our algorithms'
   convention, Section 3), the epoch of its last write, and its value. *)
type cell = { owner : region; mutable stamp : int; mutable value : string option }

(* Per-queue-pair ordering state, one QP per issuing process (Section 7
   pairs every process with every memory).  [floor] is the earliest
   instant a later op of this QP may apply — raised by each write under
   completion-lag (same-QP FIFO) and by fences; [horizon] is the latest
   apply instant assigned to any op of this QP, which is what a fence
   waits out. *)
type qp_state = { mutable floor : float; mutable horizon : float }

type t = {
  mid : int;
  engine : Engine.t;
  obs : Obs.t;
  ops : int ref; (* the collector's [mem.ops] counter *)
  actor : string; (* "mu<mid>": this memory's telemetry track *)
  legal_change : Permission.legal_change;
  mutable crashed : bool;
  mutable epoch : int;
  regions : (string, region) Hashtbl.t;
  cells : (string, cell) Hashtbl.t; (* register name -> cell *)
  (* weak-ordering model state.  Per-op lag/reorder decisions come from
     [ord_rng], a dedicated stream keyed on (seed, mid) so they replay
     identically under -j N and never perturb the engine's rng (which
     Random_latency draws from). *)
  mutable ordering : Ordering.mode;
  ord_rng : Random.State.t;
  qps : (int, qp_state) Hashtbl.t;
  (* latest apply instant assigned to any write on this memory — the
     control plane (permission changes) drains up to here *)
  mutable data_horizon : float;
}

let create ?(legal_change = Permission.static_permissions) ?(seed = 0) ~engine
    ~mid () =
  let obs = Engine.obs engine in
  {
    mid;
    engine;
    obs;
    ops = Obs.cell obs "mem.ops";
    actor = Printf.sprintf "mu%d" mid;
    legal_change;
    crashed = false;
    epoch = 0;
    regions = Hashtbl.create 64;
    cells = Hashtbl.create 256;
    ordering = Ordering.Strict;
    ord_rng = Random.State.make [| 0x6f7264; seed; mid |];
    qps = Hashtbl.create 8;
    data_horizon = 0.0;
  }

let ordering t = t.ordering

let set_ordering t mode = t.ordering <- mode

let id t = t.mid

let obs t = t.obs

(* Typed telemetry event on this memory's track, recorded as the
   operation *arrives* at the memory (one one-way delay after issue) —
   the moment the permission check happens. *)
let emit t ev = Obs.event t.obs ~actor:t.actor ev

let crash t = t.crashed <- true

let is_crashed t = t.crashed

let epoch t = t.epoch

let new_region t ~name ~perm ~member ~registers =
  if Hashtbl.mem t.regions name then
    invalid_arg (Printf.sprintf "Memory.add_region: duplicate region %s" name);
  { region_name = name; registers; member; born = t.epoch; perm; genesis = perm }

let add_region t ~name ~perm ~registers =
  let region =
    new_region t ~name ~perm ~member:(fun _ -> false) ~registers:(Lazy.from_val registers)
  in
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.cells r with
      | Some c ->
          invalid_arg
            (Printf.sprintf "Memory.add_region: register %s already in region %s" r
               c.owner.region_name)
      | None -> Hashtbl.add t.cells r { owner = region; stamp = t.epoch; value = None })
    registers;
  Hashtbl.add t.regions name region

let add_region_family t ~name ~perm ~member ~registers =
  Hashtbl.add t.regions name (new_region t ~name ~perm ~member ~registers)

(* Direct (zero-delay) inspection — for tests and trace printing only;
   simulated processes must go through the timed operations below. *)
let peek_register t reg =
  match Hashtbl.find_opt t.cells reg with
  | Some c -> c.value
  | None -> None

(* A register is stale when its last write predates the current epoch:
   lost state awaiting repair.  A register without a cell was never
   written, so it carries its region's [born]. *)
let stale_registers t ~region =
  match Hashtbl.find_opt t.regions region with
  | None -> []
  | Some r ->
      let stamp reg =
        match Hashtbl.find_opt t.cells reg with Some c -> c.stamp | None -> r.born
      in
      List.filter (fun reg -> stamp reg <> t.epoch) (Lazy.force r.registers)
      |> List.sort compare

let region_perm t name =
  match Hashtbl.find_opt t.regions name with
  | Some r -> Some r.perm
  | None -> None

let region_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.regions [] |> List.sort compare

(* Kernel-side permission override, bypassing legalChange.  Section 7
   places permission management in the (trusted) OS kernel: the Verbs
   facade is that kernel, so it may install any permission; untrusted
   process programs can still only go through changePermission. *)
let force_permission t ~region ~perm =
  match Hashtbl.find_opt t.regions region with
  | Some r -> r.perm <- perm
  | None -> invalid_arg "Memory.force_permission: no such region"

(* Restart a crashed memory under a fresh epoch: register contents and
   legalChange-granted permission state are lost.  The kernel restores
   each region's creation-time permission (the NIC driver
   re-registering configured regions on reboot), and every register
   comes back stale: reads nak until a current-epoch write repairs
   it. *)
let restart t =
  if not t.crashed then invalid_arg "Memory.restart: memory is not crashed";
  t.crashed <- false;
  t.epoch <- t.epoch + 1;
  (* In-place field updates commute across cells and across regions, so
     the hash-bucket visit order is unobservable. *)
  (Hashtbl.iter (fun _ c -> c.value <- None) t.cells;
   Hashtbl.iter (fun _ r -> r.perm <- r.genesis) t.regions)
  [@simlint.allow "D2"];
  (* In-flight pre-crash placements are dead (the epoch guard drops
     them), so the fresh epoch owes them no ordering: QP floors and the
     control-plane drain horizon reset with the reboot. *)
  Hashtbl.reset t.qps;
  t.data_horizon <- 0.0;
  Obs.count t.obs "mem.restarts" 1;
  emit t (Event.Mem_restart { mid = t.mid; epoch = t.epoch })

let qp_state t ~from =
  match Hashtbl.find_opt t.qps from with
  | Some q -> q
  | None ->
      let q = { floor = 0.0; horizon = 0.0 } in
      Hashtbl.add t.qps from q;
      q

let ops_issued = Prof.counter "mem.ops.issued"

let ops_completed = Prof.counter "mem.ops.completed"

let ops_lagged = Prof.counter "mem.ops.lagged"

let ops_reordered = Prof.counter "mem.ops.reordered"

let fences = Prof.counter "mem.fences"

(* Issue [decide] as a timed memory operation.  The op arrives at the
   memory one one-way after issue; the ordering model then assigns its
   decision and apply instants, and the response is delivered one
   one-way after the decision.  [decide] returns the response plus, for
   writes, the state mutation — split so completion-lag can resolve the
   permission check at arrival while deferring the bytes.  Every leg is
   dropped if the memory is crashed — or has been restarted into a later
   epoch — at that moment, so operations in flight across a crash can
   never resurrect after a restart (a lagged pre-crash placement in
   particular never lands in fresh-epoch memory).  The whole round trip
   is one span on the memory's track; an operation swallowed by a crash
   leaves its span unfinished, which the exporters flag.

   Timing per mode and op class ([now] = arrival instant):

     strict          decide+apply at [now], response one-way later.
     completion-lag  writes: decide at [now], apply at
                     max(now + lag, qp.floor) — same-QP FIFO — with the
                     response still one-way after [now], so the
                     completion can outrun the bytes; reads wait for
                     [qp.floor] (IB read-after-write ordering); control
                     verbs drain [data_horizon] before applying, as a
                     memory-registration change completes outstanding
                     DMA first.
     reordered-qp    data ops decide+apply at max(now + d, qp.floor);
                     the response follows one-way after the perturbed
                     apply, so a completion still implies delivery;
                     control verbs stay at [now] (a data op reordered
                     past a revocation naks at its apply instant, and
                     the issuer learns).
     fences          apply at max(now, qp.horizon) under either weak
                     mode (and raise [qp.floor], so later ops cannot
                     overtake the fence); never issued under strict. *)
let operation t ~span_name ~from ~cls decide =
  let result = Ivar.create () in
  let issue_epoch = t.epoch in
  let live () = (not t.crashed) && t.epoch = issue_epoch in
  Prof.bump ops_issued 1;
  let sp = Obs.span t.obs ~actor:t.actor ~cat:"mem" span_name in
  let complete r =
    Engine.schedule t.engine Engine.delay (fun () ->
        if live () then begin
          (* issued - completed = ops swallowed by a crash/restart *)
          Prof.bump ops_completed 1;
          Obs.finish t.obs sp;
          Ivar.fill result r
        end)
  in
  let decide_apply () =
    let r, mutation = decide () in
    (match mutation with Some m -> m () | None -> ());
    r
  in
  (* run [f] at absolute instant [at] (>= now), under the live guard *)
  let at_instant at f =
    Engine.schedule t.engine (at -. Engine.now t.engine) (fun () ->
        if live () then f ())
  in
  Engine.schedule t.engine Engine.delay (fun () ->
      if live () then begin
        let now = Engine.now t.engine in
        match t.ordering with
        | Ordering.Strict -> complete (decide_apply ())
        | Ordering.Completion_lag { max_lag } -> (
            let q = qp_state t ~from in
            match cls with
            | `Write ->
                let r, mutation = decide () in
                let lag = Random.State.float t.ord_rng max_lag in
                (match mutation with
                | Some m ->
                    let apply_at = Float.max (now +. lag) q.floor in
                    q.floor <- apply_at;
                    q.horizon <- Float.max q.horizon apply_at;
                    t.data_horizon <- Float.max t.data_horizon apply_at;
                    if apply_at > now then Prof.bump ops_lagged 1;
                    at_instant apply_at m
                | None -> ());
                complete r
            | `Read -> at_instant (Float.max now q.floor) (fun () ->
                complete (decide_apply ()))
            | `Control -> at_instant (Float.max now t.data_horizon) (fun () ->
                complete (decide_apply ()))
            | `Fence ->
                Prof.bump fences 1;
                at_instant (Float.max now q.horizon) (fun () ->
                    complete (decide_apply ())))
        | Ordering.Reorder_qp { window } -> (
            match cls with
            | `Control -> complete (decide_apply ())
            | `Write | `Read ->
                let q = qp_state t ~from in
                let d = Random.State.float t.ord_rng window in
                let apply_at = Float.max (now +. d) q.floor in
                if apply_at < q.horizon then Prof.bump ops_reordered 1;
                q.horizon <- Float.max q.horizon apply_at;
                if cls = `Write then
                  t.data_horizon <- Float.max t.data_horizon apply_at;
                at_instant apply_at (fun () -> complete (decide_apply ()))
            | `Fence ->
                let q = qp_state t ~from in
                Prof.bump fences 1;
                let at = Float.max now q.horizon in
                q.floor <- Float.max q.floor at;
                at_instant at (fun () -> complete (decide_apply ())))
      end);
  result

(* [reg]'s cell, if [reg] belongs to the region named [region].  A
   family member's first access creates its cell: ⊥, stamped with the
   region's [born], exactly what a listed layout would hold for a
   register never written since (a restart blanks values but keeps
   stamps). *)
let cell_in t ~region reg =
  match Hashtbl.find_opt t.cells reg with
  | Some c when String.equal c.owner.region_name region -> Some c
  | Some _ -> None
  | None -> (
      match Hashtbl.find_opt t.regions region with
      | Some r when r.member reg ->
          let c = { owner = r; stamp = r.born; value = None } in
          Hashtbl.add t.cells reg c;
          Some c
      | Some _ | None -> None)

let store t c value =
  c.stamp <- t.epoch;
  c.value <- value

let write_async t ~from ~region ~reg value =
  incr t.ops;
  operation t ~span_name:"mem.write" ~from ~cls:`Write (fun () ->
      let cell = cell_in t ~region reg in
      let ok =
        match cell with
        | None -> false
        | Some c -> Permission.can_write c.owner.perm from
      in
      emit t (Event.Mem_write { pid = from; mid = t.mid; region; reg; value; ok });
      match cell with
      | Some c when ok -> (Ack, Some (fun () -> store t c (Some value)))
      | Some _ | None -> (Nak, None))

let read_async t ~from ~region ~reg =
  incr t.ops;
  operation t ~span_name:"mem.read" ~from ~cls:`Read (fun () ->
      let cell = cell_in t ~region reg in
      let ok =
        match cell with
        | None -> false
        | Some c -> Permission.can_read c.owner.perm from && c.stamp = t.epoch
      in
      emit t (Event.Mem_read { pid = from; mid = t.mid; region; reg; ok });
      match cell with
      | Some c when ok -> (Read c.value, None)
      | Some _ | None -> (Read_nak, None))

(* Batched read of several registers of one region in a single operation —
   an RDMA read of a contiguous slot array (Section 7).  Results are in
   request order; the whole batch naks if any register is outside the
   region, the caller lacks read permission, or any register is stale
   (lost in a restart and not yet repaired). *)
type read_many_result = Read_many of string option array | Read_many_nak

let read_many_async t ~from ~region ~regs =
  incr t.ops;
  operation t ~span_name:"mem.read_many" ~from ~cls:`Read (fun () ->
      let cells = List.map (cell_in t ~region) regs in
      let ok =
        match Hashtbl.find_opt t.regions region with
        | None -> false
        | Some r ->
            Permission.can_read r.perm from
            && List.for_all
                 (function Some c -> c.stamp = t.epoch | None -> false)
                 cells
      in
      emit t
        (Event.Mem_read_many
           { pid = from; mid = t.mid; region; count = List.length regs; ok });
      ( (if ok then
           Read_many
             (Array.of_list
                (List.map (function Some c -> c.value | None -> None) cells))
         else Read_many_nak),
        None ))

(* Batched write of several registers of one region in a single operation
   — the write-side sibling of [read_many_async], an RDMA write of a
   contiguous array.  [None] stores ⊥ (a write of zeroes).  Every named
   register is stamped with the current epoch, which is what makes this
   the state-transfer primitive: installing a snapshot repairs the whole
   region in one two-delay operation. *)
let write_many_async t ~from ~region ~values =
  incr t.ops;
  operation t ~span_name:"mem.write_many" ~from ~cls:`Write (fun () ->
      let cells = List.map (fun (reg, v) -> (cell_in t ~region reg, v)) values in
      let ok =
        match Hashtbl.find_opt t.regions region with
        | None -> false
        | Some r ->
            Permission.can_write r.perm from
            && List.for_all (fun (c, _) -> Option.is_some c) cells
      in
      emit t
        (Event.Mem_write_many
           { pid = from; mid = t.mid; region; count = List.length values; ok });
      if ok then
        ( Ack,
          Some
            (fun () ->
              List.iter
                (function Some c, v -> store t c v | None, _ -> ())
                cells) )
      else (Nak, None))

(* changePermission (Section 3): the memory evaluates legalChange on
   arrival; an illegal request silently becomes a no-op (the paper's
   semantics), but we report whether it was applied for observability. *)
let change_permission_async t ~from ~region ~perm =
  incr t.ops;
  operation t ~span_name:"mem.perm" ~from ~cls:`Control (fun () ->
      let applied =
        match Hashtbl.find_opt t.regions region with
        | None -> false
        | Some r ->
            if t.legal_change ~pid:from ~region ~current:r.perm ~requested:perm
            then begin
              r.perm <- perm;
              true
            end
            else false
      in
      emit t (Event.Mem_perm { pid = from; mid = t.mid; region; applied });
      ((if applied then Ack else Nak), None))

(* Explicit flush (the RDMA FLUSH / read-after-write fence): the result
   arrives only once every operation this process issued to this memory
   before the fence has been applied.  Free under [Strict] — no engine
   event, no span, no counter — so algorithms may fence unconditionally
   without perturbing strict-mode benchmarks or perf baselines. *)
let fence_async t ~from =
  match t.ordering with
  | Ordering.Strict -> Ivar.full Ack
  | Ordering.Completion_lag _ | Ordering.Reorder_qp _ ->
      operation t ~span_name:"mem.fence" ~from ~cls:`Fence (fun () ->
          emit t (Event.Mem_fence { pid = from; mid = t.mid });
          (Ack, None))
