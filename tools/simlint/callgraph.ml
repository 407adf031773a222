(* May-yield call graph over the simulator's own sources.

   The cooperative-fiber engine ([lib/sim]) makes every blocking
   operation a *suspension point*: the calling fiber parks, the event
   loop runs other fibers, and any shared mutable state the caller read
   before the call may be rewritten underneath it.  PR 2's nastiest bug
   ([Trusted.t_send] recording its Sent history entry after the
   broadcast yield) was exactly such a stale read-modify-write across a
   suspension — found dynamically, by the chaos harness.  This module
   makes the property static: it harvests every function definition
   across the scanned tree, seeds a yield set from the engine's
   suspension primitives, and runs a fixpoint so that any function
   *transitively* reaching a yield is known to yield.

   Function identity is [(module, name)] where [module] is the last
   module-path component — the file's basename for top-level bindings,
   the submodule's own name for bindings inside [module N = struct .. end].
   That matches how the tree calls things: libraries are wrapped
   ([Rdma_sim] etc.), so in-tree call sites are single-qualified
   ([Engine.sleep], [Memclient.write_quorum]) and a qualified path's last
   two components identify the callee.  Functors ([Paxos.Make]) are
   flattened into their enclosing module, and [module X = Paxos.Make (T)]
   records the alias [X -> Paxos], so [X.propose] reaches the functor's
   bindings.

   Known imprecision (all deliberate, documented in DESIGN.md §13):

   - calls through function *values* (functor parameters, record fields,
     higher-order arguments) are unresolvable and assumed non-yielding;
   - a lambda literal's body is attributed to the enclosing definition
     (so [List.iter (fun _ -> Engine.sleep 1.0) xs] correctly marks the
     encloser), EXCEPT under the deferred-context primitives
     ([Engine.spawn]/[schedule]/[on_cancel], [Ivar.on_fill*]), whose
     callbacks run on another fiber or at a later event and are
     therefore not suspension points of the caller;
   - a lambda that is built but never invoked still marks its encloser
     (may-yield is an over-approximation). *)

type fn_id = string * string (* (module last component, value name) *)

let pp_fn_id (m, f) = m ^ "." ^ f

(* {2 Seeds}

   The yield roots: the engine's own suspension primitives plus the
   blocking operations of the layers directly above it.  Everything
   below [Memclient] is rediscovered transitively when [lib/sim] and
   [lib/rdma] are in the scanned set; seeding them explicitly keeps the
   analysis sound when it runs on a partial tree (the fixture corpus). *)

let yield_seeds : fn_id list =
  [
    ("Engine", "suspend"); ("Engine", "sleep"); ("Engine", "yield");
    ("Ivar", "await"); ("Ivar", "await_timeout");
    ("Par", "await_k"); ("Par", "await_all"); ("Par", "await_k_timeout");
    ("Mailbox", "recv"); ("Mailbox", "recv_timeout");
    ("Memclient", "write"); ("Memclient", "read");
    ("Memclient", "change_permission");
    ("Memclient", "write_quorum"); ("Memclient", "read_quorum");
    ("Memclient", "change_permission_quorum");
    ("Memclient", "fence"); ("Memclient", "write_many");
  ]

(* Callback-registration primitives whose function arguments run on
   another fiber (or at a later event), not in the caller's control
   flow: calls inside those arguments are not suspension points of the
   registering function. *)
let deferred_heads : fn_id list =
  [
    ("Engine", "spawn"); ("Engine", "schedule"); ("Engine", "on_cancel");
    ("Ivar", "on_fill"); ("Ivar", "on_fill_cancellable");
    ("Cluster", "spawn");
  ]

(* Applications through these record fields are also fiber-spawns
   ([ctx.Cluster.spawn_sub "name" (fun () -> ...)]): the callback runs on
   the new fiber, not in the caller. *)
let deferred_fields = [ "spawn_sub" ]

let is_deferred_field name = List.mem name deferred_fields

(* In-tree callback-registration functions extend the deferred set by
   declaring [@@simlint.deferred] on their definition (e.g. [Neb.create],
   whose [~deliver] callback runs on the poller fiber). *)
let deferred_attr_name = "simlint.deferred"

(* One-sided-write issuers (rule F1): the ops whose completion under a
   weak ordering model does NOT imply remote visibility.  In-tree
   wrappers that re-export a completion result declare themselves with
   [@@simlint.write_issuer] (e.g. [Swmr.write]). *)
let write_issuer_prims : fn_id list =
  [
    ("Memclient", "write"); ("Memclient", "write_quorum");
    ("Memclient", "write_many"); ("Memclient", "write_all_async");
    ("Memory", "write_async"); ("Memory", "write_many_async");
    ("Verbs", "rdma_write");
  ]

(* Fence / permission-switch primitives (rule F1's sanctions): an
   explicit flush, or a permission change — which drains the data plane
   under every ordering model (DESIGN.md §12).  The fence property
   propagates through the call graph: a function that transitively
   performs a permission switch is itself a sanction. *)
let fence_prims : fn_id list =
  [
    ("Memclient", "fence"); ("Memclient", "fence_all_async");
    ("Memclient", "change_permission");
    ("Memclient", "change_permission_all_async");
    ("Memclient", "change_permission_quorum");
    ("Memory", "change_permission_async"); ("Memory", "fence_async");
    ("Verbs", "rdma_flush"); ("Verbs", "dereg_mr"); ("Verbs", "rereg_mr");
  ]

let yields_attr_name = "sim.yields"

let write_issuer_attr_name = "simlint.write_issuer"

(* {2 Small shared utilities} *)

let rec longident_flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (t, s) -> longident_flatten t @ [ s ]
  | Longident.Lapply (a, _) -> longident_flatten a

let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path

let module_of_path file =
  Filename.basename file |> Filename.remove_extension
  |> String.capitalize_ascii

let has_attr name attrs =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = name) attrs

(* {2 The graph} *)

type def = {
  d_id : fn_id;
  d_file : string;
  d_loc : Location.t;
  d_body : Parsetree.expression;
  mutable d_calls : fn_id list;
}

type t = {
  defs : (fn_id, def list) Hashtbl.t;
  by_file : (string, def list) Hashtbl.t; (* file -> defs, definition order *)
  aliases : (string, (string * string) list) Hashtbl.t; (* file -> local module aliases *)
  mutable_fields : (string, unit) Hashtbl.t; (* mutable record field names *)
  yield_set : (fn_id, unit) Hashtbl.t;
  fence_set : (fn_id, unit) Hashtbl.t;
  issuer_set : (fn_id, unit) Hashtbl.t;
  deferred_set : (fn_id, unit) Hashtbl.t;
}

let create () =
  let t =
    {
      defs = Hashtbl.create 256;
      by_file = Hashtbl.create 64;
      aliases = Hashtbl.create 64;
      mutable_fields = Hashtbl.create 64;
      yield_set = Hashtbl.create 256;
      fence_set = Hashtbl.create 64;
      issuer_set = Hashtbl.create 64;
      deferred_set = Hashtbl.create 16;
    }
  in
  List.iter (fun id -> Hashtbl.replace t.yield_set id ()) yield_seeds;
  List.iter (fun id -> Hashtbl.replace t.fence_set id ()) fence_prims;
  List.iter (fun id -> Hashtbl.replace t.issuer_set id ()) write_issuer_prims;
  List.iter (fun id -> Hashtbl.replace t.deferred_set id ()) deferred_heads;
  t

let dealias t ~file m =
  match Hashtbl.find_opt t.aliases file with
  | None -> m
  | Some al -> ( match List.assoc_opt m al with Some m' -> m' | None -> m)

(* Resolve a (possibly qualified) identifier at a use site in [file]
   whose enclosing module is [modname].  Unqualified names resolve to
   the enclosing module; qualified names to their last two components,
   with the module component de-aliased. *)
let resolve t ~file ~modname lid =
  match strip_stdlib (longident_flatten lid) with
  | [] -> None
  | [ f ] -> Some (modname, f)
  | parts ->
      let rec last2 = function
        | [ m; f ] -> (m, f)
        | _ :: tl -> last2 tl
        | [] -> assert false
      in
      let m, f = last2 parts in
      Some (dealias t ~file m, f)

(* {2 Pass A: aliases, mutable fields, definitions} *)

let add_def t ~file ~id ~loc ~body =
  let d = { d_id = id; d_file = file; d_loc = loc; d_body = body; d_calls = [] } in
  Hashtbl.replace t.defs id
    (d :: (Option.value ~default:[] (Hashtbl.find_opt t.defs id)));
  Hashtbl.replace t.by_file file
    (d :: (Option.value ~default:[] (Hashtbl.find_opt t.by_file file)));
  d

let add_alias t ~file x target =
  Hashtbl.replace t.aliases file
    ((x, target) :: (Option.value ~default:[] (Hashtbl.find_opt t.aliases file)))

(* The module a [module X = ...] body stands for: a path alias keeps the
   path's last component; a functor application ([Paxos.Make (T)]) keeps
   the component *before* the functor's own name, which is where its
   bindings were flattened to. *)
let rec alias_target (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_ident { txt; _ } -> (
      match List.rev (longident_flatten txt) with
      | last :: _ -> Some last
      | [] -> None)
  | Pmod_apply (f, _) -> (
      let rec head (m : Parsetree.module_expr) =
        match m.pmod_desc with
        | Pmod_ident { txt; _ } -> Some (longident_flatten txt)
        | Pmod_apply (f, _) -> head f
        | _ -> None
      in
      match head f with
      | Some [ _make ] -> None (* local functor: no better name *)
      | Some parts -> (
          match List.rev parts with
          | _make :: owner :: _ -> Some owner
          | _ -> None)
      | None -> None)
  | Pmod_constraint (m, _) -> alias_target m
  | _ -> None

let harvest_mutable_fields t (td : Parsetree.type_declaration) =
  match td.ptype_kind with
  | Ptype_record labels ->
      List.iter
        (fun (ld : Parsetree.label_declaration) ->
          if ld.pld_mutable = Mutable then
            Hashtbl.replace t.mutable_fields ld.pld_name.txt ())
        labels
  | _ -> ()

let rec harvest_structure t ~file ~modname (str : Parsetree.structure) =
  List.iter
    (fun (si : Parsetree.structure_item) ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = name; _ } ->
                  let d =
                    add_def t ~file ~id:(modname, name) ~loc:vb.pvb_loc
                      ~body:vb.pvb_expr
                  in
                  if has_attr write_issuer_attr_name vb.pvb_attributes then
                    Hashtbl.replace t.issuer_set d.d_id ();
                  if has_attr yields_attr_name vb.pvb_attributes then
                    Hashtbl.replace t.yield_set d.d_id ();
                  if has_attr deferred_attr_name vb.pvb_attributes then
                    Hashtbl.replace t.deferred_set d.d_id ()
              | _ -> ())
            vbs
      | Pstr_type (_, tds) -> List.iter (harvest_mutable_fields t) tds
      | Pstr_module mb ->
          let name = Option.value mb.pmb_name.txt ~default:"_" in
          harvest_module t ~file ~outer:modname ~name mb.pmb_expr
      | _ -> ())
    str

and harvest_module t ~file ~outer ~name (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure str -> harvest_structure t ~file ~modname:name str
  | Pmod_functor (_, body) ->
      (* a functor's bindings are flattened into the enclosing module:
         [module Make (T) = struct let propose .. end] inside paxos.ml
         registers [Paxos.propose] *)
      harvest_module t ~file ~outer ~name:outer body
  | Pmod_constraint (m, _) -> harvest_module t ~file ~outer ~name m
  | (Pmod_ident _ | Pmod_apply _) as _alias -> (
      match alias_target me with
      | Some target -> add_alias t ~file name target
      | None -> ())
  | _ -> ()

(* {2 Pass B: call edges} *)

let calls_of_body t ~file ~modname (body : Parsetree.expression) =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when (match resolve t ~file ~modname txt with
                 | Some id -> Hashtbl.mem t.deferred_set id
                 | None -> false) ->
              (* deferred context: the arguments run elsewhere *)
              ()
          | Pexp_apply
              ({ pexp_desc = Pexp_field (_, { txt = flid; _ }); _ }, _)
            when (match List.rev (longident_flatten flid) with
                 | f :: _ -> is_deferred_field f
                 | [] -> false) ->
              ()
          | Pexp_ident { txt; _ } ->
              (match resolve t ~file ~modname txt with
              | Some id -> acc := id :: !acc
              | None -> ());
              Ast_iterator.default_iterator.expr it e
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  List.sort_uniq compare !acc

(* {2 Fixpoints} *)

let propagate set defs =
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun id ds ->
        if not (Hashtbl.mem set id) then
          if
            List.exists
              (fun d -> List.exists (Hashtbl.mem set) d.d_calls)
              ds
          then begin
            Hashtbl.replace set id ();
            changed := true
          end)
      defs
  done

let build (files : (string * Parsetree.structure) list) =
  let t = create () in
  List.iter
    (fun (file, ast) ->
      harvest_structure t ~file ~modname:(module_of_path file) ast)
    files;
  List.iter
    (fun (file, _) ->
      match Hashtbl.find_opt t.by_file file with
      | None -> ()
      | Some ds ->
          List.iter
            (fun d ->
              d.d_calls <-
                calls_of_body t ~file ~modname:(fst d.d_id) d.d_body)
            ds)
    files;
  propagate t.yield_set t.defs;
  propagate t.fence_set t.defs;
  t

(* {2 Queries} *)

let may_yield t id = Hashtbl.mem t.yield_set id

let is_deferred t id = Hashtbl.mem t.deferred_set id

let is_fence t id = Hashtbl.mem t.fence_set id

let is_write_issuer t id = Hashtbl.mem t.issuer_set id

let is_mutable_field t name = Hashtbl.mem t.mutable_fields name

let defs_of_file t file =
  Option.value ~default:[] (Hashtbl.find_opt t.by_file file) |> List.rev

(* Every known definition with its verdict, sorted — the [--dump-yields]
   debug surface and the EXPERIMENTS.md coverage evidence. *)
let dump t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.defs []
  |> List.sort_uniq compare
  |> List.map (fun id -> (pp_fn_id id, may_yield t id))

let def_count t = Hashtbl.length t.defs

let module_count t =
  Hashtbl.fold (fun (m, _) _ acc -> m :: acc) t.defs []
  |> List.sort_uniq compare |> List.length
