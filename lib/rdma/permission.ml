(* Memory-region permissions (Section 3).

   A permission is three disjoint sets of processes (R, W, RW).  A process
   may read a region if it is in R ∪ RW and write it if in W ∪ RW.  The
   special shape R = P \ {w}, W = ∅, RW = {w} is a Single-Writer
   Multi-Reader (SWMR) region. *)

module Pset = Set.Make (Int)

type t = { read : Pset.t; write : Pset.t; readwrite : Pset.t }

let pset_of_list = Pset.of_list

let make ?(read = []) ?(write = []) ?(readwrite = []) () =
  let read = pset_of_list read
  and write = pset_of_list write
  and readwrite = pset_of_list readwrite in
  if not Pset.(is_empty (inter read write) && is_empty (inter read readwrite)
               && is_empty (inter write readwrite))
  then invalid_arg "Permission.make: R, W, RW must be disjoint";
  { read; write; readwrite }

let none = { read = Pset.empty; write = Pset.empty; readwrite = Pset.empty }

let range n = List.init n Fun.id

(* SWMR region owned by [writer] among processes 0..n-1. *)
let swmr ~writer ~n =
  make
    ~read:(List.filter (fun p -> p <> writer) (range n))
    ~readwrite:[ writer ] ()

(* Every process can read and write — the disk model (Section 3). *)
let all_readwrite ~n = make ~readwrite:(range n) ()

let read_all ~n = make ~read:(range n) ()

(* Everyone reads; exactly [writer] also writes — the shape Protected
   Memory Paxos maintains per memory (Algorithm 7 line 2). *)
let exclusive_writer ~writer ~n =
  make
    ~read:(List.filter (fun p -> p <> writer) (range n))
    ~readwrite:[ writer ] ()

let can_read t p = Pset.mem p t.read || Pset.mem p t.readwrite

let can_write t p = Pset.mem p t.write || Pset.mem p t.readwrite

let writers t = Pset.union t.write t.readwrite

(* The single process with write access, if exactly one. *)
let sole_writer t =
  match Pset.elements (writers t) with [ w ] -> Some w | _ -> None

let equal a b =
  Pset.equal a.read b.read && Pset.equal a.write b.write
  && Pset.equal a.readwrite b.readwrite

let pp ppf t =
  let pp_set ppf s = Fmt.(list ~sep:(any ",") int) ppf (Pset.elements s) in
  Fmt.pf ppf "{R:%a W:%a RW:%a}" pp_set t.read pp_set t.write pp_set t.readwrite

(* legalChange(p, mr, old, new) — Section 3, "Permission change".  Returns
   whether process [p] may install [requested] over [current]. *)
type legal_change = pid:int -> region:string -> current:t -> requested:t -> bool

let static_permissions : legal_change = fun ~pid:_ ~region:_ ~current:_ ~requested:_ -> false
