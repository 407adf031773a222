(* Scoped work-attribution profiler with a two-plane design.

   DETERMINISTIC PLANE — integer work counters (SHA-256 blocks
   compressed, HMAC evaluations, sign/verify calls, memory operations,
   messages, simulator events) attributed to the innermost open scope
   at the moment of the bump.  A site resolves its counter's name to
   a handle once ([counter], at module level); a bump then adds into
   an int array on the tree node of the current scope path, and path
   strings are built only at read-back.  Scheduling is deterministic,
   so the scope stack at any bump site is a pure function of the
   seed: the whole plane is byte-identical across repeated runs and
   across [-j N].  It merges into an [Obs.t] (see [Obs.absorb_prof]) and may
   appear in digests, baselines and replay artifacts.

   TIMING PLANE — wall-clock self/total seconds per scope path, read
   from {!Prof_clock} (the one sanctioned wall-clock source).  Timing
   is reported (perf snapshots, flamegraphs) but NEVER merged into an
   [Obs.t], never hashed, never replayed: nothing downstream of a
   digest may depend on it.

   AMBIENT INSTALLATION — instrumentation sites (sha256's compress
   loop, the engine's event loop, the memory's issue path) have no
   collector handle, so the current profiler is domain-local state:
   [with_profiler] installs one for the extent of a run and every
   [bump]/[scope] call finds it in O(1); with none installed the hooks
   are no-ops.  Domain-local is the one mutable-global shape that keeps
   the task-pool determinism contract: a pooled task never observes
   another domain's profiler, and [Pool] additionally masks the
   caller's profiler around inline task execution so [-j 1] and [-j N]
   attribute identically (a task profiles only what it installs
   itself).

   FIBERS — a scope opened inside an engine fiber survives suspension:
   the engine detaches the fiber's frames at every [Suspend] (pausing
   their wall timers) and re-attaches them when the fiber resumes, so
   scopes nest per fiber, not per domain, and time spent suspended (or
   running other fibers) is charged to nobody.  Deterministic counts
   are recorded eagerly at bump time, so a fiber that is cancelled
   while suspended loses only the wall-time of its still-open frames,
   never counts. *)

(* {2 Counter handles} *)

(* A handle is an index into the count array of every scope node. *)
type counter = int

(* Counter names by id.  Grown by compare-and-set, so two domains
   declaring counters at once both get their ids. *)
let registry = Atomic.make [||]
[@@simlint.allow
  "D6 the handle-id allocator: ids only index count arrays, and \
   read-back maps them to names and sorts by name, so no output depends \
   on which domain or module declared a counter first"]

let rec counter name =
  let names = Atomic.get registry in
  match Array.find_index (String.equal name) names with
  | Some id -> id
  | None ->
      if Atomic.compare_and_set registry names (Array.append names [| name |])
      then Array.length names
      else counter name

(* {2 Scope paths} *)

(* One node per distinct scope path, found from its parent by name.
   Counts and timings live on the node; the path string is built only
   at read-back. *)
type node = {
  name : string;
  up : node option; (* [None] for the root *)
  mutable children : node list;
  mutable counts : int array; (* counter id -> count, [unset] if never bumped *)
  mutable timing : timing option;
}

and timing = { mutable calls : int; mutable total_s : float; mutable self_s : float }

(* A slot a bump never reached; distinct from a bump of 0, which still
   makes a row. *)
let unset = min_int

let new_node ~up name = { name; up; children = []; counts = [||]; timing = None }

let child_named up name =
  let rec find = function
    | c :: rest -> if String.equal c.name name then c else find rest
    | [] ->
        let c = new_node ~up:(Some up) name in
        up.children <- c :: up.children;
        c
  in
  find up.children

type frame = {
  id : int;
  node : node;
  parent : frame option;
  mutable attached_at : float; (* wall time of last attach, when attached *)
  mutable ran : float; (* wall seconds accumulated over past attachments *)
  mutable child : float; (* total seconds of directly nested closed scopes *)
}

type t = {
  clock : unit -> float;
  root : node; (* bumps outside any scope *)
  mutable stack : frame list; (* innermost first *)
  mutable depth : int;
  mutable next_frame_id : int;
}

let create ?clock () =
  let clock = match clock with Some c -> c | None -> Prof_clock.now in
  { clock; root = new_node ~up:None ""; stack = []; depth = 0; next_frame_id = 0 }

(* {2 Ambient installation} *)

(* Domain-local, deliberately: see the header.  Not a cross-domain
   global — each domain sees only the profiler it installed itself. *)
let installed_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_profiler t f =
  let prev = Domain.DLS.get installed_key in
  Domain.DLS.set installed_key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set installed_key prev) f

(* Mask any installed profiler for the extent of [f]; the pool wraps
   every task with this so inline (-j 1) execution attributes exactly
   like worker-domain execution (which starts with no profiler). *)
let without_profiler f =
  let prev = Domain.DLS.get installed_key in
  Domain.DLS.set installed_key None;
  Fun.protect ~finally:(fun () -> Domain.DLS.set installed_key prev) f

(* {2 Deterministic plane} *)

let plus counts c n =
  let v = counts.(c) in
  counts.(c) <- (if v = unset then n else v + n)

let add_count node c n =
  if c >= Array.length node.counts then begin
    let counts = Array.make (Array.length (Atomic.get registry)) unset in
    Array.blit node.counts 0 counts 0 (Array.length node.counts);
    node.counts <- counts
  end;
  plus node.counts c n

let bump c n =
  match Domain.DLS.get installed_key with
  | None -> ()
  | Some t -> add_count (match t.stack with [] -> t.root | f :: _ -> f.node) c n

(* {2 Scopes (both planes)} *)

let timing_for node =
  match node.timing with
  | Some tm -> tm
  | None ->
      let tm = { calls = 0; total_s = 0.; self_s = 0. } in
      node.timing <- Some tm;
      tm

let push_frame t name =
  let parent = match t.stack with [] -> None | f :: _ -> Some f in
  let up = match parent with None -> t.root | Some p -> p.node in
  t.next_frame_id <- t.next_frame_id + 1;
  let frame =
    {
      id = t.next_frame_id;
      node = child_named up name;
      parent;
      attached_at = t.clock ();
      ran = 0.;
      child = 0.;
    }
  in
  t.stack <- frame :: t.stack;
  t.depth <- t.depth + 1;
  frame

let close_frame t frame =
  let total = frame.ran +. (t.clock () -. frame.attached_at) in
  let tm = timing_for frame.node in
  tm.calls <- tm.calls + 1;
  tm.total_s <- tm.total_s +. total;
  tm.self_s <- tm.self_s +. Float.max 0. (total -. frame.child);
  Option.iter (fun p -> p.child <- p.child +. total) frame.parent

(* Pop [frame] (normally the top of the stack).  If an intervening
   frame leaked — a scope body escaped without closing, which the
   engine's detach/attach protocol prevents but a buggy instrumentation
   site could provoke — close the leaked frames too rather than
   corrupting the stack for every later scope. *)
let pop_frame t frame =
  let rec pop = function
    | [] -> [] (* frame already gone (detached and lost); leave stack *)
    | f :: rest ->
        close_frame t f;
        t.depth <- t.depth - 1;
        if f.id = frame.id then rest else pop rest
  in
  match t.stack with
  | f :: rest when f.id = frame.id ->
      close_frame t f;
      t.depth <- t.depth - 1;
      t.stack <- rest
  | stack -> if List.exists (fun f -> f.id = frame.id) stack then t.stack <- pop stack

let in_scope t name f =
  let frame = push_frame t name in
  Fun.protect ~finally:(fun () -> pop_frame t frame) f

let scope name f =
  match Domain.DLS.get installed_key with
  | None -> f ()
  | Some t -> in_scope t name f

(* {2 Fiber suspension support (used by the engine)} *)

(* A detached segment remembers which profiler it came from, so a
   resume delivered after the run's profiler was uninstalled (or under
   a nested one) re-attaches to the right stack. *)
type frames = (t * frame list) option

let depth () =
  match Domain.DLS.get installed_key with None -> 0 | Some t -> t.depth

(* Detach every frame above [base] (the stack depth when the engine
   dispatched the current event), pausing their wall timers.  The
   engine calls this inside its [Suspend] handler; the frames travel
   with the continuation and re-attach on resume. *)
let detach_to base =
  match Domain.DLS.get installed_key with
  | None -> None
  | Some t ->
      if t.depth <= base then None
      else begin
        let now = t.clock () in
        let n = t.depth - base in
        let rec split k stack =
          if k = 0 then ([], stack)
          else
            match stack with
            | [] -> ([], [])
            | f :: rest ->
                f.ran <- f.ran +. (now -. f.attached_at);
                let taken, left = split (k - 1) rest in
                (f :: taken, left)
        in
        let taken, left = split n t.stack in
        t.stack <- left;
        t.depth <- base;
        Some (t, taken)
      end

let attach = function
  | None -> ()
  | Some (t, frames) ->
      let now = t.clock () in
      List.iter (fun f -> f.attached_at <- now) frames;
      (* [frames] is innermost-first, same order as the stack *)
      t.stack <- frames @ t.stack;
      t.depth <- t.depth + List.length frames

(* {2 Read-back (all sorted, so every consumer is order-stable)} *)

(* A scope entered at the root is named by itself; a nested one by its
   parent's path, [';'] and its name. *)
let rec path_of node =
  match node.up with
  | None -> ""
  | Some { up = None; _ } -> node.name
  | Some up -> path_of up ^ ";" ^ node.name

(* Every node of the tree; callers sort what they read. *)
let nodes t =
  let rec walk acc node = List.fold_left walk (node :: acc) node.children in
  walk [] t.root

(* The bumped [(counter, n)] rows of a count array, sorted by counter. *)
let rows names counts =
  let acc = ref [] in
  Array.iteri (fun c n -> if n <> unset then acc := (names.(c), n) :: !acc) counts;
  List.sort compare !acc

let totals t =
  let names = Atomic.get registry in
  let sums = Array.make (Array.length names) unset in
  List.iter
    (fun node -> Array.iteri (fun c n -> if n <> unset then plus sums c n) node.counts)
    (nodes t);
  rows names sums

let display_path path = if path = "" then "(root)" else path

let by_scope t =
  let names = Atomic.get registry in
  List.filter_map
    (fun node ->
      match rows names node.counts with
      | [] -> None
      | row -> Some (path_of node, row))
    (nodes t)
  |> List.sort compare
  |> List.map (fun (path, row) -> (display_path path, row))

let timings t =
  List.filter_map
    (fun node ->
      Option.map
        (fun tm -> (path_of node, (tm.calls, tm.total_s, tm.self_s)))
        node.timing)
    (nodes t)
  |> List.sort compare
  |> List.map (fun (path, (calls, total_s, self_s)) ->
         (display_path path, calls, total_s, self_s))

(* Inject an externally measured timing row (e.g. a Bechamel estimate)
   into the timing plane, so one snapshot carries both the profiler's
   own scopes and harness-level wall-clock results. *)
let add_timing t ~path ~calls ~total_s ~self_s =
  let node =
    if path = "" then t.root
    else List.fold_left child_named t.root (String.split_on_char ';' path)
  in
  let tm = timing_for node in
  tm.calls <- tm.calls + calls;
  tm.total_s <- tm.total_s +. total_s;
  tm.self_s <- tm.self_s +. self_s
