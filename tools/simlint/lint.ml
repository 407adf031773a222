(* simlint: determinism, protocol-hygiene & yield-atomicity static
   analysis over the repository's own sources.

   Every guarantee the simulator sells — byte-identical traces per seed,
   replayable chaos repro artifacts, deterministic recovery schedules,
   atomic leader-change steps — rests on conventions no type checker
   enforces.  simlint walks the untyped parsetree
   ([compiler-libs.common]'s [Parse] + [Ast_iterator]; no ppx in the
   build loop) and machine-checks those conventions.

   v1 rules (per-expression; each individually toggleable):

   - D1  banned nondeterminism primitives — global-state [Random.*],
         [Unix.time]/[gettimeofday], [Sys.time], [Gc] queries — anywhere
         except [lib/sim].
   - D2  [Hashtbl.iter]/[Hashtbl.fold] whose result is not passed
         directly through [List.sort]/[List.stable_sort]/[List.sort_uniq].
   - D3  a [_] wildcard arm in a [match]/[function] whose other arms
         mention a protocol message/fault constructor, inside the
         designated protocol-handler trees.
   - D4  physical equality [==]/[!=] outside [lib/sim].
   - D5  [Obj.magic] / [Marshal.*] anywhere.
   - D6  module-level mutable state inside the task-parallel trees.

   v2 rules (interprocedural, over the {!Callgraph} may-yield fixpoint):

   - Y1  atomicity-across-yield: inside one function body, a read of
         mutable state (mutable record field, [ref], [Hashtbl], array
         slot) before a may-yield call, with a *dependent* write — one
         whose right-hand side re-reads the same location — after it.
         This is the exact shape of the [Trusted.t_send] bug PR 2's
         chaos harness caught dynamically: the pre-yield read is stale
         by the time the write commits, and any state mutated by a
         concurrently scheduled fiber is silently clobbered.  Locations
         created locally in the body ([let polls = ref 0]) are exempt —
         under this linter's own approximations (deferred-context
         callbacks excluded) nothing else can reach them across the
         yield.
   - Y2  yield-contract drift: an exported function that may yield must
         carry [@@sim.yields] on its [val] in the [.mli], and a
         non-yielding one must not — an interface-level atomicity
         contract, checked on every build, anchored at the yield roots
         in [lib/sim]'s own mlis.
   - F1  fence discipline: outside [lib/rdma], branching on the
         completion of a one-sided write (its [op_result] scrutinized by
         a [match]/[if]) treats an RDMA completion as remote delivery.
         Under the weak ordering models (DESIGN.md §12) a completion
         does not imply visibility; the site needs an intervening
         [Verbs.rdma_flush]/[Memclient.fence], a permission switch
         (which drains the data plane), or an explicit
         [@simlint.allow "F1 <structural reason>"] justification — the
         per-algorithm excuses of EXPERIMENTS.md W2, made machine-
         checked.
   - A1  stale suppression: a [simlint.allow] attribute that no longer
         matches any finding is itself an error, so suppressions cannot
         outlive the code they excused.

   Suppression: attach [@simlint.allow "ID justification..."] to the
   offending expression, its pattern (for D3 arms), an enclosing [let]
   binding or [val] item, or file-wide via a floating
   [@@@simlint.allow "..."]; several rule ids may share one payload
   ("D2 D4"), and everything after the leading rule ids is the recorded
   justification.  Unknown rule ids in payloads are ignored (forward
   compatibility). *)

type rule = D1 | D2 | D3 | D4 | D5 | D6 | Y1 | Y2 | F1 | A1

let all_rules = [ D1; D2; D3; D4; D5; D6; Y1; Y2; F1; A1 ]

let rule_id = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | D5 -> "D5"
  | D6 -> "D6"
  | Y1 -> "Y1"
  | Y2 -> "Y2"
  | F1 -> "F1"
  | A1 -> "A1"

let rule_of_id = function
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "D3" -> Some D3
  | "D4" -> Some D4
  | "D5" -> Some D5
  | "D6" -> Some D6
  | "Y1" -> Some Y1
  | "Y2" -> Some Y2
  | "F1" -> Some F1
  | "A1" -> Some A1
  | _ -> None

type finding = {
  file : string;
  line : int;
  col : int;
  offset : int;  (** char offset in file; drives suppression-range matching *)
  rule : rule;
  message : string;
  suppressed : string option;
      (** [Some justification] when an allow matched; [None] = active *)
}

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line (rule_id f.rule) f.message

type config = {
  rules : rule list;  (** enabled rules *)
  sim_dirs : string list;
      (** path fragments naming the engine tree exempt from D1/D4/Y1/F1 *)
  proto_dirs : string list;  (** path fragments where D3 applies *)
  mutable_dirs : string list;  (** path fragments where D6 applies *)
  yield_dirs : string list;  (** path fragments where Y1/F1 apply *)
  y2_dirs : string list;  (** path fragments whose .mli carry the Y2 contract *)
  fence_exempt_dirs : string list;
      (** the substrate that implements the ordering models; F1-exempt *)
}

let default_config =
  {
    rules = all_rules;
    sim_dirs = [ "lib/sim/" ];
    proto_dirs = [ "lib/core/"; "lib/smr/"; "lib/chaos/" ];
    mutable_dirs = [ "lib/"; "bench/" ];
    yield_dirs = [ "lib/"; "bench/" ];
    y2_dirs = [ "lib/" ];
    fence_exempt_dirs = [ "lib/rdma/" ];
  }

(* {2 Small utilities} *)

let contains_fragment path frag =
  let lp = String.length path and lf = String.length frag in
  let rec go i = i + lf <= lp && (String.sub path i lf = frag || go (i + 1)) in
  lf > 0 && go 0

let in_dirs path dirs = List.exists (contains_fragment path) dirs

let longident_flatten = Callgraph.longident_flatten

let strip_stdlib = Callgraph.strip_stdlib

let module_of_path = Callgraph.module_of_path

(* {2 Attribute handling} *)

let allow_attr_name = "simlint.allow"

let protocol_attr_name = "simlint.protocol"

let yields_attr_name = Callgraph.yields_attr_name

let string_of_payload = function
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

(* "D2, D4 justification text" -> ([D2; D4], "justification text"): the
   leading tokens that parse as rule ids are the granted rules, and the
   remainder of the payload — punctuation intact — is the recorded
   justification. *)
let parse_allow_payload s =
  let n = String.length s in
  let is_sep c = c = ' ' || c = '\t' || c = '\n' || c = ',' in
  let rec go i rules =
    let i =
      let j = ref i in
      while !j < n && is_sep s.[!j] do incr j done;
      !j
    in
    if i >= n then (List.rev rules, "")
    else
      let j =
        let j = ref i in
        while !j < n && not (is_sep s.[!j]) do incr j done;
        !j
      in
      match rule_of_id (String.sub s i (j - i)) with
      | Some r -> go j (r :: rules)
      | None ->
          (* justification: normalize the line breaks of multi-line
             string literals, keep everything else *)
          let rest = String.sub s i (n - i) in
          let words =
            String.split_on_char '\n' rest
            |> List.concat_map (String.split_on_char ' ')
            |> List.filter (fun w -> w <> "")
          in
          (List.rev rules, String.concat " " words)
  in
  go 0 []

let has_protocol_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = protocol_attr_name)
    attrs

let has_yields_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = yields_attr_name)
    attrs

(* {2 Suppression sites}

   Every [@simlint.allow] in a file becomes a site covering the char
   range of the node it is attached to (the whole file for floating
   [@@@simlint.allow]).  Findings are computed unsuppressed, then
   filtered: a finding whose offset falls inside a matching site is
   downgraded to suppressed (carrying the site's justification), and the
   site is marked used.  Sites that never match are rule A1 findings —
   the stale-suppression detector. *)

type allow_site = {
  s_rules : rule list;
  s_just : string;
  s_file : string;
  s_line : int;  (** of the attribute, for A1 reports *)
  s_col : int;
  s_offset : int;
  s_lo : int;  (** covered char range [s_lo, s_hi) *)
  s_hi : int;
  mutable s_used : bool;
}

let site_of_attr ~file ~(range : Location.t) (a : Parsetree.attribute) =
  if a.attr_name.txt <> allow_attr_name then None
  else
    match string_of_payload a.attr_payload with
    | None -> None
    | Some s ->
        let rules, just = parse_allow_payload s in
        if rules = [] then None
        else
          let pos = a.attr_loc.loc_start in
          Some
            {
              s_rules = rules;
              s_just = just;
              s_file = file;
              s_line = pos.pos_lnum;
              s_col = pos.pos_cnum - pos.pos_bol;
              s_offset = pos.pos_cnum;
              s_lo = range.loc_start.pos_cnum;
              s_hi = range.loc_end.pos_cnum;
              s_used = false;
            }

let whole_file : Location.t =
  let p = { Lexing.pos_fname = ""; pos_lnum = 0; pos_bol = 0; pos_cnum = 0 } in
  {
    Location.loc_start = p;
    loc_end = { p with pos_cnum = max_int };
    loc_ghost = true;
  }

let collect_sites_structure ~file (ast : Parsetree.structure) =
  let sites = ref [] in
  let add ~range attrs =
    List.iter
      (fun a ->
        match site_of_attr ~file ~range a with
        | Some s -> sites := s :: !sites
        | None -> ())
      attrs
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          add ~range:e.pexp_loc e.pexp_attributes;
          Ast_iterator.default_iterator.expr it e);
      pat =
        (fun it p ->
          add ~range:p.ppat_loc p.ppat_attributes;
          Ast_iterator.default_iterator.pat it p);
      value_binding =
        (fun it vb ->
          add ~range:vb.pvb_loc vb.pvb_attributes;
          Ast_iterator.default_iterator.value_binding it vb);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute a -> add ~range:whole_file [ a ]
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it ast;
  !sites

let collect_sites_signature ~file (sg : Parsetree.signature) =
  let sites = ref [] in
  let add ~range attrs =
    List.iter
      (fun a ->
        match site_of_attr ~file ~range a with
        | Some s -> sites := s :: !sites
        | None -> ())
      attrs
  in
  List.iter
    (fun (si : Parsetree.signature_item) ->
      match si.psig_desc with
      | Psig_attribute a -> add ~range:whole_file [ a ]
      | Psig_value vd -> add ~range:si.psig_loc vd.pval_attributes
      | _ -> ())
    sg;
  !sites

(* {2 Parsing} *)

type unit_ast =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature

let parse_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      lexbuf.lex_curr_p <-
        { pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
      if Filename.check_suffix path ".mli" then Intf (Parse.interface lexbuf)
      else Impl (Parse.implementation lexbuf))

(* {2 Pass 1: harvest protocol constructors (for D3)} *)

type proto_ctor = { ctor : string; decl_module : string }

let harvest_protocol_ctors cfg (files : (string * Parsetree.structure) list) =
  let acc = ref [] in
  let harvest_decl ~decl_module (td : Parsetree.type_declaration) ~in_proto =
    let is_protocol =
      has_protocol_attr td.ptype_attributes
      || (in_proto && td.ptype_name.txt = "msg")
    in
    if is_protocol then
      match td.ptype_kind with
      | Ptype_variant ctors ->
          List.iter
            (fun (cd : Parsetree.constructor_declaration) ->
              acc := { ctor = cd.pcd_name.txt; decl_module } :: !acc)
            ctors
      | _ -> ()
  in
  List.iter
    (fun (path, ast) ->
      let decl_module = module_of_path path in
      let in_proto = in_dirs path cfg.proto_dirs in
      let it =
        {
          Ast_iterator.default_iterator with
          type_declaration =
            (fun it td ->
              harvest_decl ~decl_module td ~in_proto;
              Ast_iterator.default_iterator.type_declaration it td);
        }
      in
      it.structure it ast)
    files;
  !acc

(* {2 Pass 2: per-file expression checks (the v1 D rules)} *)

(* D1 — banned ambient-nondeterminism idents, by flattened path. *)
let d1_banned path_components =
  match path_components with
  | [ "Random"; fn ] ->
      if
        List.mem fn
          [
            "self_init"; "init"; "int"; "int32"; "int64"; "nativeint";
            "full_int"; "int_in_range"; "bool"; "float"; "bits"; "bits32";
            "bits64"; "char"; "get_state"; "set_state";
          ]
      then
        Some
          (Printf.sprintf
             "global-state Random.%s is unseeded nondeterminism; thread a \
              seeded Random.State (Engine.rng) instead"
             fn)
      else None
  | [ "Unix"; ("time" | "gettimeofday" as fn) ] ->
      Some
        (Printf.sprintf
           "Unix.%s reads the wall clock; simulator code must use virtual \
            time (Engine.now)"
           fn)
  | [ "Sys"; "time" ] ->
      Some
        "Sys.time reads the process clock; simulator code must use virtual \
         time (Engine.now)"
  | "Gc" :: _ :: _ ->
      Some
        "Gc queries leak allocator state into behaviour; nothing outside \
         lib/sim may depend on them"
  | _ -> None

(* D2 — Hashtbl traversal idents. *)
let is_hashtbl_traversal = function
  | [ "Hashtbl"; ("iter" | "fold") ] -> true
  | _ -> false

let is_list_sort = function
  | [ "List"; ("sort" | "stable_sort" | "sort_uniq") ] -> true
  | _ -> false

(* D5 *)
let d5_banned path_components =
  match path_components with
  | [ "Obj"; "magic" ] ->
      Some "Obj.magic defeats the type system and every determinism argument"
  | "Marshal" :: _ :: _ ->
      Some
        "Marshal is representation-dependent (closures, sharing, hash \
         seeds); use the typed codecs"
  | _ -> None

(* D6 — functions whose application yields a fresh mutable container. *)
let d6_creator = function
  | [ "ref" ] -> Some "ref"
  | [ "Hashtbl"; "create" ] -> Some "Hashtbl.create"
  | [ "Array"; (("make" | "init" | "create_float" | "make_matrix") as f) ] ->
      Some ("Array." ^ f)
  | [ "Bytes"; (("create" | "make") as f) ] -> Some ("Bytes." ^ f)
  | [ "Buffer"; "create" ] -> Some "Buffer.create"
  | [ "Queue"; "create" ] -> Some "Queue.create"
  | [ "Stack"; "create" ] -> Some "Stack.create"
  | [ "Atomic"; "make" ] -> Some "Atomic.make"
  | [ "Mutex"; "create" ] -> Some "Mutex.create"
  | [ "Condition"; "create" ] -> Some "Condition.create"
  | _ -> None

(* Mutable-creator applications reachable from [e] without entering a
   function body: whatever they build is constructed once, at module
   initialization, not per call. *)
let d6_creator_apps (e : Parsetree.expression) =
  let found = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_fun _ | Pexp_function _ -> ()
          | _ ->
              (match e.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
                  match d6_creator (strip_stdlib (longident_flatten txt)) with
                  | Some name -> found := (e.pexp_loc, name) :: !found
                  | None -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  List.rev !found

(* Does the pattern bind at least one name?  [let () = ...] and
   [let _ = ...] initializers are not module state. *)
let rec pattern_binds (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var _ | Ppat_alias _ -> true
  | Ppat_tuple ps | Ppat_array ps -> List.exists pattern_binds ps
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p
    ->
      pattern_binds p
  | Ppat_or (a, b) -> pattern_binds a || pattern_binds b
  | Ppat_construct (_, Some (_, p)) -> pattern_binds p
  | Ppat_record (fields, _) -> List.exists (fun (_, p) -> pattern_binds p) fields
  | _ -> false

let head_ident (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (strip_stdlib (longident_flatten txt))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      Some (strip_stdlib (longident_flatten txt))
  | _ -> None

(* Top-level wildcard-ness of a match arm's pattern. *)
let rec pattern_is_wildcard (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_is_wildcard p
  | Ppat_or (a, b) -> pattern_is_wildcard a || pattern_is_wildcard b
  | _ -> false

(* Does [p] mention a harvested protocol constructor anywhere? *)
let pattern_mentions_proto ~ctors ~file_module (p : Parsetree.pattern) =
  let found = ref false in
  let check lid =
    match List.rev (strip_stdlib (longident_flatten lid)) with
    | [] -> ()
    | [ c ] ->
        if List.exists (fun pc -> pc.ctor = c && pc.decl_module = file_module) ctors
        then found := true
    | c :: m :: _ ->
        if List.exists (fun pc -> pc.ctor = c && pc.decl_module = m) ctors then
          found := true
  in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct ({ txt; _ }, _) -> check txt
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !found

let proto_ctor_names ~ctors ~file_module cases =
  List.concat_map
    (fun (c : Parsetree.case) ->
      let names = ref [] in
      let it =
        {
          Ast_iterator.default_iterator with
          pat =
            (fun it p ->
              (match p.ppat_desc with
              | Ppat_construct ({ txt; _ }, _) -> (
                  match List.rev (strip_stdlib (longident_flatten txt)) with
                  | c :: rest
                    when List.exists
                           (fun pc ->
                             pc.ctor = c
                             &&
                             match rest with
                             | [] -> pc.decl_module = file_module
                             | m :: _ -> pc.decl_module = m)
                           ctors ->
                      names := c :: !names
                  | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.pat it p);
        }
      in
      it.pat it c.pc_lhs;
      !names)
    cases
  |> List.sort_uniq compare

(* {2 Pass 3: the interprocedural Y1/F1 body analysis}

   A single approximate-evaluation-order walk per harvested function
   body, tracking three event planes at once:

   - Y1: reads/writes of named mutable locations and yield points.  A
     location key is the access path ("t.history", "pending", ...);
     reads move to the stale set when a yield passes; a dependent write
     (RHS re-reads the key) to a stale key is a finding.
   - F1: one-sided write issues, fence/permission-switch calls, and
     branch points whose scrutinee observes a write completion (a direct
     issuer application, or a variable bound to one).  A branch with no
     fence after its issue point is a finding.
   - Branches ([match]/[if]/[try]) fork the Y1 state and merge by
     union; loop bodies are walked once (the read-yield-write shape is
     visible in a single linearized iteration). *)

module SMap = Map.Make (String)

type ystate = {
  fresh : Location.t SMap.t;  (* key -> read loc, no yield crossed yet *)
  stale : (Location.t * Location.t) SMap.t;  (* key -> (read, yield) locs *)
  comp : int SMap.t;  (* completion-result variables -> issue position *)
}

let y_empty = { fresh = SMap.empty; stale = SMap.empty; comp = SMap.empty }

let y_merge a b =
  {
    fresh = SMap.union (fun _ l _ -> Some l) a.fresh b.fresh;
    stale = SMap.union (fun _ l _ -> Some l) a.stale b.stale;
    comp = SMap.union (fun _ l _ -> Some l) a.comp b.comp;
  }

(* The access path of a location expression: an identifier or a chain of
   field projections rooted at one ("t", "t.history").  Anything more
   exotic is not tracked. *)
let rec path_of (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      Some (String.concat "." (strip_stdlib (longident_flatten txt)))
  | Pexp_field (b, { txt; _ }) -> (
      match (path_of b, List.rev (longident_flatten txt)) with
      | Some p, f :: _ -> Some (p ^ "." ^ f)
      | _ -> None)
  | Pexp_constraint (e, _) -> path_of e
  | _ -> None

let path_root p = match String.index_opt p '.' with
  | Some i -> String.sub p 0 i
  | None -> p

let hashtbl_read = function
  | [ "Hashtbl"; ("find" | "find_opt" | "find_all" | "mem" | "length"
                 | "iter" | "fold") ] -> true
  | _ -> false

let hashtbl_write = function
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear"
                 | "filter_map_inplace") ] -> true
  | _ -> false

let array_read = function
  | [ ("Array" | "Bytes" | "String"); ("get" | "unsafe_get") ] -> true
  | _ -> false

let array_write = function
  | [ ("Array" | "Bytes"); ("set" | "unsafe_set" | "fill" | "blit") ] -> true
  | _ -> false

(* Does [e] read location [key] anywhere (dereference, field read, array
   get, Hashtbl read)?  Decides write "dependence" — a stale
   read-modify-write re-reads the location it clobbers. *)
let mentions_read ~key (e : Parsetree.expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_field _ -> if path_of e = Some key then found := true
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
              let p = strip_stdlib (longident_flatten txt) in
              let arg1_is_key () =
                match args with
                | (_, a) :: _ -> path_of a = Some key
                | [] -> false
              in
              match p with
              | [ "!" ] -> if arg1_is_key () then found := true
              | _ ->
                  if (array_read p || hashtbl_read p) && arg1_is_key () then
                    found := true)
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* One analyzed function body.  Lambdas handed to the deferred-context
   primitives (fiber spawns, completion callbacks) run on another fiber:
   they are excluded from this body's event order and recursively
   analyzed as bodies of their own, with fresh state. *)
let rec analyze_body ~graph ~file ~modname ~check_y1 ~check_f1 ~report body =
  let locals : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let pos = ref 0 in
  let fences = ref [] in
  (* (issue position, branch loc) *)
  let candidates = ref [] in
  (* lambda bodies spawned onto other fibers, analyzed separately *)
  let spawned = ref [] in
  let defer_args args =
    List.iter
      (fun ((_, a) : _ * Parsetree.expression) ->
        match a.pexp_desc with
        | Pexp_fun _ | Pexp_function _ -> spawned := a :: !spawned
        | _ -> ())
      args
  in
  let resolve lid = Callgraph.resolve graph ~file ~modname lid in
  let tick () = incr pos; !pos in
  let tracked key =
    not (Hashtbl.mem locals (path_root key))
  in
  let read st key loc =
    ignore (tick ());
    if tracked key && not (SMap.mem key st.fresh) then
      { st with fresh = SMap.add key loc st.fresh }
    else st
  in
  let write st key loc ~dependent =
    ignore (tick ());
    (if check_y1 && dependent && tracked key then
       match SMap.find_opt key st.stale with
       | Some (read_loc, yield_loc) ->
           report ~loc Y1
             (Printf.sprintf
                "read-modify-write of %s spans a yield: read at line %d, \
                 suspension at line %d, dependent write here — concurrent \
                 fibers can mutate %s inside that window (the Trusted.t_send \
                 bug shape); move the write before the yield, re-derive the \
                 state after it, or justify with [@simlint.allow \"Y1 \
                 <why>\"]"
                key read_loc.Location.loc_start.pos_lnum
                yield_loc.Location.loc_start.pos_lnum key)
       | None -> ());
    st
  in
  let yield st yloc =
    ignore (tick ());
    {
      st with
      stale =
        SMap.fold
          (fun key rloc acc ->
            if SMap.mem key acc then acc else SMap.add key (rloc, yloc) acc)
          st.fresh st.stale;
    }
  in
  (* Does [e] contain an application of a one-sided write issuer? *)
  let contains_issuer e =
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
                match resolve txt with
                | Some id when Callgraph.is_write_issuer graph id ->
                    found := true
                | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it e;
    !found
  in
  (* A scrutinee/condition that observes a write completion: a direct
     issuer application, or a mention of a variable bound to one. *)
  let completion_observed st e =
    if contains_issuer e then Some !pos
    else
      let found = ref None in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt = Lident x; _ } -> (
                  match SMap.find_opt x st.comp with
                  | Some p when !found = None -> found := Some p
                  | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.expr it e;
      !found
  in
  let observe_branch st scrut =
    if check_f1 then
      match completion_observed st scrut with
      | Some issue_pos ->
          candidates := (issue_pos, scrut.Parsetree.pexp_loc) :: !candidates
      | None -> ()
  in
  let rec walk st (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident _ | Pexp_constant _ -> st
    | Pexp_field (b, { txt; _ }) -> (
        let st = walk st b in
        match (path_of e, List.rev (longident_flatten txt)) with
        | Some key, f :: _ when Callgraph.is_mutable_field graph f ->
            read st key e.pexp_loc
        | _ -> st)
    | Pexp_setfield (b, { txt; _ }, rhs) -> (
        let st = walk st b in
        let st = walk st rhs in
        match (path_of b, List.rev (longident_flatten txt)) with
        | Some bp, f :: _ ->
            let key = bp ^ "." ^ f in
            write st key e.pexp_loc ~dependent:(mentions_read ~key rhs)
        | _ -> st)
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as hd), args) -> (
        let p = strip_stdlib (longident_flatten txt) in
        let resolved = resolve txt in
        let deferred =
          match resolved with
          | Some id -> Callgraph.is_deferred graph id
          | None -> false
        in
        if deferred then begin
          defer_args args;
          st
        end
        else
          let arg_path i =
            match List.nth_opt args i with
            | Some (_, a) -> path_of a
            | None -> None
          in
          match p with
          | [ "!" ] -> (
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              match arg_path 0 with
              | Some key -> read st key e.pexp_loc
              | None -> st)
          | [ ":=" ] -> (
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              match arg_path 0 with
              | Some key ->
                  let dependent =
                    match args with
                    | _ :: (_, rhs) :: _ ->
                        mentions_read ~key rhs
                        ||
                        (* !key inside rhs: the [!] application *)
                        (let found = ref false in
                         let it =
                           {
                             Ast_iterator.default_iterator with
                             expr =
                               (fun it e ->
                                 (match e.pexp_desc with
                                 | Pexp_apply
                                     ( { pexp_desc = Pexp_ident { txt = Lident "!"; _ }; _ },
                                       [ (_, a) ] )
                                   when path_of a = Some key ->
                                     found := true
                                 | _ -> ());
                                 Ast_iterator.default_iterator.expr it e);
                           }
                         in
                         it.expr it rhs;
                         !found)
                    | _ -> false
                  in
                  write st key e.pexp_loc ~dependent
              | None -> st)
          | [ ("incr" | "decr") ] -> (
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              match arg_path 0 with
              | Some key ->
                  let st = read st key e.pexp_loc in
                  write st key e.pexp_loc ~dependent:true
              | None -> st)
          | _ when array_read p -> (
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              match arg_path 0 with
              | Some key -> read st key e.pexp_loc
              | None -> st)
          | _ when array_write p -> (
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              match arg_path 0 with
              | Some key ->
                  let dependent =
                    List.exists (fun (_, a) -> mentions_read ~key a)
                      (match args with _ :: rest -> rest | [] -> [])
                  in
                  write st key e.pexp_loc ~dependent
              | None -> st)
          | _ when hashtbl_read p -> (
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              match arg_path 0 with
              | Some key -> read st key e.pexp_loc
              | None -> st)
          | _ when hashtbl_write p -> (
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              match arg_path 0 with
              | Some key ->
                  let dependent =
                    List.exists (fun (_, a) -> mentions_read ~key a)
                      (match args with _ :: rest -> rest | [] -> [])
                  in
                  write st key e.pexp_loc ~dependent
              | None -> st)
          | _ ->
              let st = walk st hd in
              let st = List.fold_left (fun st (_, a) -> walk st a) st args in
              (match resolved with
              | Some id when check_f1 && Callgraph.is_fence graph id ->
                  fences := tick () :: !fences
              | _ -> ());
              (match resolved with
              | Some id when Callgraph.may_yield graph id ->
                  yield st e.pexp_loc
              | _ -> st))
    | Pexp_apply
        (({ pexp_desc = Pexp_field (_, { txt = flid; _ }); _ } as hd), args)
      -> (
        (* [ctx.spawn_sub "name" (fun () -> ...)]: the callback runs on
           the new fiber, not here *)
        match List.rev (longident_flatten flid) with
        | f :: _ when Callgraph.is_deferred_field f ->
            defer_args args;
            st
        | _ ->
            let st = walk st hd in
            List.fold_left (fun st (_, a) -> walk st a) st args)
    | Pexp_apply (hd, args) ->
        let st = walk st hd in
        List.fold_left (fun st (_, a) -> walk st a) st args
    | Pexp_let (_, vbs, body) ->
        let st =
          List.fold_left
            (fun st (vb : Parsetree.value_binding) ->
              let st = walk st vb.pvb_expr in
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt = x; _ } ->
                  let creator =
                    match head_ident vb.pvb_expr with
                    | Some p -> d6_creator p <> None
                    | None -> (
                        match vb.pvb_expr.pexp_desc with
                        | Pexp_record _ | Pexp_array _ -> true
                        | _ -> false)
                  in
                  if creator then Hashtbl.replace locals x ();
                  if check_f1 && contains_issuer vb.pvb_expr then
                    { st with comp = SMap.add x !pos st.comp }
                  else { st with comp = SMap.remove x st.comp }
              | _ -> st)
            st vbs
        in
        walk st body
    | Pexp_sequence (a, b) ->
        let st = walk st a in
        walk st b
    | Pexp_ifthenelse (c, t, e_opt) ->
        let st = walk st c in
        observe_branch st c;
        let st_t = walk st t in
        let st_e = match e_opt with Some e -> walk st e | None -> st in
        y_merge st_t st_e
    | Pexp_match (scrut, cases) ->
        let st = walk st scrut in
        observe_branch st scrut;
        List.fold_left
          (fun acc (c : Parsetree.case) ->
            let st_g =
              match c.pc_guard with Some g -> walk st g | None -> st
            in
            y_merge acc (walk st_g c.pc_rhs))
          st cases
    | Pexp_try (b, cases) ->
        let st_b = walk st b in
        List.fold_left
          (fun acc (c : Parsetree.case) -> y_merge acc (walk st_b c.pc_rhs))
          st_b cases
    | Pexp_function cases ->
        List.fold_left
          (fun acc (c : Parsetree.case) ->
            let st_g =
              match c.pc_guard with Some g -> walk st g | None -> st
            in
            y_merge acc (walk st_g c.pc_rhs))
          st cases
    | Pexp_fun (_, default, _, body) ->
        let st =
          match default with Some d -> walk st d | None -> st
        in
        walk st body
    | Pexp_while (c, b) ->
        let st = walk st c in
        walk st b
    | Pexp_for (_, lo, hi, _, b) ->
        let st = walk st lo in
        let st = walk st hi in
        walk st b
    | Pexp_construct (_, Some e)
    | Pexp_variant (_, Some e)
    | Pexp_assert e | Pexp_lazy e | Pexp_newtype (_, e)
    | Pexp_open (_, e) | Pexp_letexception (_, e)
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_poly (e, _)
    | Pexp_send (e, _) | Pexp_setinstvar (_, e) ->
        walk st e
    | Pexp_tuple es | Pexp_array es ->
        List.fold_left walk st es
    | Pexp_record (fields, base) ->
        let st = match base with Some b -> walk st b | None -> st in
        List.fold_left (fun st (_, e) -> walk st e) st fields
    | Pexp_letmodule (_, _, e) -> walk st e
    | Pexp_letop { let_; ands; body } ->
        let st = walk st let_.pbop_exp in
        let st =
          List.fold_left (fun st (b : Parsetree.binding_op) -> walk st b.pbop_exp)
            st ands
        in
        walk st body
    | _ -> st
  in
  ignore (walk y_empty body);
  List.iter
    (analyze_body ~graph ~file ~modname ~check_y1 ~check_f1 ~report)
    (List.rev !spawned);
  if check_f1 then
    List.iter
      (fun (issue_pos, loc) ->
        if not (List.exists (fun f -> f > issue_pos) !fences) then
          report ~loc F1
            "branches on a one-sided write completion as if it implied \
             remote delivery; under a weak ordering model (DESIGN.md §12) \
             completion does not mean visibility — fence first \
             (Memclient.fence / Verbs.rdma_flush), switch permissions \
             (which drains the data plane), or record the structural \
             reason this is safe with [@simlint.allow \"F1 <why>\"]")
      (List.rev !candidates)

(* {2 Per-file linting} *)

let lint_structure cfg ~ctors ~graph (path, (ast : Parsetree.structure)) =
  let findings = ref [] in
  let file_module = module_of_path path in
  let in_sim = in_dirs path cfg.sim_dirs in
  let in_proto = in_dirs path cfg.proto_dirs in
  let in_mutable = in_dirs path cfg.mutable_dirs in
  let in_yield = in_dirs path cfg.yield_dirs && not in_sim in
  let enabled r = List.mem r cfg.rules in
  let report ~loc rule message =
    if enabled rule then
      let pos = loc.Location.loc_start in
      findings :=
        {
          file = path;
          line = pos.pos_lnum;
          col = pos.pos_cnum - pos.pos_bol;
          offset = pos.pos_cnum;
          rule;
          message;
          suppressed = None;
        }
        :: !findings
  in
  (* D2 bookkeeping: character offsets of traversal expressions that are
     sanctioned (feed directly into a sort) or already reported at the
     application node (so the head ident is not reported twice). *)
  let sanctioned : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let consumed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let mark tbl (e : Parsetree.expression) =
    Hashtbl.replace tbl e.pexp_loc.loc_start.pos_cnum ()
  in
  let marked tbl (e : Parsetree.expression) =
    Hashtbl.mem tbl e.pexp_loc.loc_start.pos_cnum
  in
  let sanction_if_traversal (e : Parsetree.expression) =
    match head_ident e with
    | Some p when is_hashtbl_traversal p -> mark sanctioned e
    | _ -> ()
  in
  let check_expr (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ },
                  [ (_, lhs); (_, rhs) ]) -> (
        match head_ident rhs with
        | Some p when is_list_sort p -> sanction_if_traversal lhs
        | _ -> ())
    | Pexp_apply (f, args) -> (
        (match head_ident f with
        | Some p when is_list_sort p ->
            List.iter (fun (_, a) -> sanction_if_traversal a) args
        | _ -> ());
        match f.pexp_desc with
        | Pexp_ident { txt; _ } ->
            let p = strip_stdlib (longident_flatten txt) in
            if is_hashtbl_traversal p then begin
              mark consumed f;
              if not (marked sanctioned e) then
                report ~loc:e.pexp_loc D2
                  (Printf.sprintf
                     "%s escapes in hash-bucket order; pipe the result \
                      through List.sort before it leaves this expression, \
                      or justify with [@simlint.allow \"D2\"]"
                     (String.concat "." p))
            end
        | _ -> ())
    | Pexp_ident { txt; _ } -> (
        let p = strip_stdlib (longident_flatten txt) in
        if is_hashtbl_traversal p && (not (marked consumed e))
           && not (marked sanctioned e)
        then
          report ~loc:e.pexp_loc D2
            (Printf.sprintf
               "%s passed as a first-class value; its traversal order is \
                hash-internal — sort at the use site or justify with \
                [@simlint.allow \"D2\"]"
               (String.concat "." p));
        (match d1_banned p with
        | Some msg when not in_sim -> report ~loc:e.pexp_loc D1 msg
        | _ -> ());
        (match p with
        | [ ("==" | "!=") ] when not in_sim ->
            report ~loc:e.pexp_loc D4
              "physical equality compares addresses, not values; use \
               structural (=)/(<>) outside lib/sim"
        | _ -> ());
        match d5_banned p with
        | Some msg -> report ~loc:e.pexp_loc D5 msg
        | None -> ())
    | Pexp_match (_, cases) | Pexp_function cases ->
        if in_proto && enabled D3 then begin
          let mentions =
            List.exists
              (fun (c : Parsetree.case) ->
                pattern_mentions_proto ~ctors ~file_module c.pc_lhs)
              cases
          in
          if mentions then
            List.iter
              (fun (c : Parsetree.case) ->
                if pattern_is_wildcard c.pc_lhs then
                  report ~loc:c.pc_lhs.ppat_loc D3
                    (Printf.sprintf
                       "wildcard arm in a match over protocol constructors \
                        (%s): a newly added constructor is silently \
                        swallowed here — list the remaining constructors \
                        explicitly, or justify with [@simlint.allow \"D3\"]"
                       (String.concat ", "
                          (proto_ctor_names ~ctors ~file_module cases))))
              cases
        end
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          check_expr e;
          Ast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_value (_, vbs) when in_mutable && enabled D6 ->
              (* Structure items only occur at module level (the
                 expression walk never re-enters here), so every binding
                 seen by this hook is module state. *)
              List.iter
                (fun (vb : Parsetree.value_binding) ->
                  if pattern_binds vb.pvb_pat then
                    List.iter
                      (fun (loc, name) ->
                        report ~loc D6
                          (Printf.sprintf
                             "module-level mutable state (%s) is shared by \
                              every domain that touches this module and \
                              breaks task isolation; move it into the task's \
                              own state or threaded config, or justify with \
                              [@simlint.allow \"D6\"]"
                             name))
                      (d6_creator_apps vb.pvb_expr))
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it si);
    }
  in
  it.structure it ast;
  (* Y1 + F1: one pass per harvested function body of this file. *)
  let check_y1 = enabled Y1 && in_yield in
  let check_f1 =
    enabled F1 && in_yield && not (in_dirs path cfg.fence_exempt_dirs)
  in
  if check_y1 || check_f1 then
    List.iter
      (fun (d : Callgraph.def) ->
        analyze_body ~graph ~file:path ~modname:(fst d.Callgraph.d_id)
          ~check_y1 ~check_f1 ~report d.Callgraph.d_body)
      (Callgraph.defs_of_file graph path);
  !findings

(* Y2 over an interface: every top-level arrow-typed [val] must carry
   [@@sim.yields] exactly when its implementation may yield. *)
let rec core_type_is_arrow (ct : Parsetree.core_type) =
  match ct.ptyp_desc with
  | Ptyp_arrow _ -> true
  | Ptyp_poly (_, c) | Ptyp_alias (c, _) -> core_type_is_arrow c
  | _ -> false

let lint_signature cfg ~graph (path, (sg : Parsetree.signature)) =
  if not (in_dirs path cfg.y2_dirs) then []
  else if not (List.mem Y2 cfg.rules) then []
  else begin
    let file_module = module_of_path path in
    let findings = ref [] in
    let report ~(loc : Location.t) message =
      let pos = loc.loc_start in
      findings :=
        {
          file = path;
          line = pos.pos_lnum;
          col = pos.pos_cnum - pos.pos_bol;
          offset = pos.pos_cnum;
          rule = Y2;
          message;
          suppressed = None;
        }
        :: !findings
    in
    List.iter
      (fun (si : Parsetree.signature_item) ->
        match si.psig_desc with
        | Psig_value vd when core_type_is_arrow vd.pval_type ->
            let name = vd.pval_name.txt in
            let yields =
              Callgraph.may_yield graph (file_module, name)
            in
            let declared = has_yields_attr vd.pval_attributes in
            if yields && not declared then
              report ~loc:vd.pval_loc
                (Printf.sprintf
                   "%s.%s may suspend the calling fiber (it transitively \
                    reaches a yield) but its val is not marked — callers \
                    cannot see the atomicity boundary; add [@@sim.yields] \
                    to the val in %s"
                   file_module name (Filename.basename path))
            else if declared && not yields then
              report ~loc:vd.pval_loc
                (Printf.sprintf
                   "%s.%s is declared [@@sim.yields] but no yield is \
                    reachable from its implementation — the contract has \
                    drifted; drop the attribute (or fix the \
                    implementation)"
                   file_module name)
        | _ -> ())
      sg;
    !findings
  end

(* {2 Suppression application + stale detection} *)

let apply_suppressions ~sites findings =
  List.map
    (fun f ->
      let matching =
        List.filter
          (fun s ->
            s.s_file = f.file
            && List.mem f.rule s.s_rules
            && f.offset >= s.s_lo && f.offset < s.s_hi)
          sites
      in
      match matching with
      | [] -> f
      | s :: _ ->
          List.iter (fun s -> s.s_used <- true) matching;
          { f with suppressed = Some s.s_just })
    findings

let stale_findings cfg ~sites =
  if not (List.mem A1 cfg.rules) then []
  else
    let enabled r = List.mem r cfg.rules in
    let of_site s =
      if s.s_used || not (List.exists enabled s.s_rules) then None
      else
        Some
          {
            file = s.s_file;
            line = s.s_line;
            col = s.s_col;
            offset = s.s_offset;
            rule = A1;
            message =
              Printf.sprintf
                "stale suppression: [@simlint.allow \"%s\"] matches no \
                 current finding — the code it excused is gone; delete the \
                 attribute so it cannot silently cover future regressions"
                (String.concat " " (List.map rule_id s.s_rules));
            suppressed = None;
          }
    in
    List.filter_map of_site sites

(* {2 Entry points} *)

let compare_findings a b =
  compare (a.file, a.line, a.col, rule_id a.rule)
    (b.file, b.line, b.col, rule_id b.rule)

(* Lint already-parsed units (the fixture tests feed these).  Returns
   every finding, suppressed ones included, in stable order. *)
let lint_parsed_all cfg (units : (string * unit_ast) list) =
  let impls =
    List.filter_map
      (function path, Impl ast -> Some (path, ast) | _, Intf _ -> None)
      units
  in
  let intfs =
    List.filter_map
      (function path, Intf sg -> Some (path, sg) | _, Impl _ -> None)
      units
  in
  let graph = Callgraph.build impls in
  let ctors = harvest_protocol_ctors cfg impls in
  let sites =
    List.concat_map
      (fun (path, ast) -> collect_sites_structure ~file:path ast)
      impls
    @ List.concat_map
        (fun (path, sg) -> collect_sites_signature ~file:path sg)
        intfs
  in
  let raw =
    List.concat_map (lint_structure cfg ~ctors ~graph) impls
    @ List.concat_map (lint_signature cfg ~graph) intfs
  in
  let filtered = apply_suppressions ~sites raw in
  List.sort compare_findings (filtered @ stale_findings cfg ~sites)

let active findings = List.filter (fun f -> f.suppressed = None) findings

let lint_parsed cfg units = active (lint_parsed_all cfg units)

exception Parse_error of string * string (* file, message *)

let parse_files paths =
  List.map
    (fun path ->
      match parse_file path with
      | ast -> (path, ast)
      | exception exn ->
          let msg =
            match Location.error_of_exn exn with
            | Some (`Ok report) ->
                Format.asprintf "%a" Location.print_report report
            | _ -> Printexc.to_string exn
          in
          raise (Parse_error (path, msg)))
    paths

let lint_files_all cfg paths = lint_parsed_all cfg (parse_files paths)

let lint_files cfg paths = active (lint_files_all cfg paths)

(* The may-yield verdict for every known definition — the
   [--dump-yields] debug surface. *)
let dump_yields paths =
  let units = parse_files paths in
  let impls =
    List.filter_map
      (function path, Impl ast -> Some (path, ast) | _ -> None)
      units
  in
  Callgraph.build impls

(* Recursively collect .ml/.mli files under [roots] (files are taken
   as-is), sorted so the scan order — and therefore the report order —
   never depends on directory enumeration. *)
let collect_ml_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun name -> name <> "_build" && name.[0] <> '.')
      |> List.fold_left (fun acc name -> walk acc (Filename.concat path name)) acc
    else if
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then path :: acc
    else acc
  in
  List.fold_left walk [] roots |> List.sort_uniq compare

(* {2 JSON findings output}

   Machine-readable mirror of the text report, stable field order and
   stable (file, line, col, rule) sort, so CI tooling can diff findings
   between trees the way tools/perfdiff diffs perf snapshots.
   Suppressed findings are included with their recorded justification —
   the diffable artifact of every [@simlint.allow] in the tree. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let render_json findings =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n  ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\
            \"message\":\"%s\",\"suppressed\":%b,\"justification\":%s}"
           (json_escape f.file) f.line f.col (rule_id f.rule)
           (json_escape f.message)
           (f.suppressed <> None)
           (match f.suppressed with
           | None -> "null"
           | Some j -> "\"" ^ json_escape j ^ "\"")))
    findings;
  Buffer.add_string b "\n]\n";
  Buffer.contents b
