(* Output checks over one KV session, as pure functions of what the
   clients observed and what the surviving replicas applied.  Each
   returns the violations found, described for the report. *)

let longest logs =
  List.fold_left
    (fun best l -> if List.length l > List.length best then l else best)
    [] logs

(* Every surviving replica's applied log is a prefix of the longest one.
   Exact equality would misfire: under load a follower trails the
   leader by an entry or two when the session ends. *)
let prefix_consistent (logs : (int * string) list list) =
  let longest = longest logs in
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  List.filter_map
    (fun l ->
      if is_prefix l longest then None
      else
        Some
          (Printf.sprintf "log of length %d diverges from the longest (%d)"
             (List.length l) (List.length longest)))
    logs

(* Every acknowledged write [(index, cmd)] sits at its index. *)
let acked_in_log ~(log : (int * string) list) (acked : (int * string) list) =
  let at = Hashtbl.create (List.length log) in
  List.iter (fun (i, cmd) -> Hashtbl.replace at i cmd) log;
  List.filter_map
    (fun (i, cmd) ->
      match Hashtbl.find_opt at i with
      | Some c when c = cmd -> None
      | Some _ -> Some (Printf.sprintf "index %d holds another command" i)
      | None -> Some (Printf.sprintf "acked index %d missing" i))
    acked

(* Linearizability of reads against real time: a read sent at [sent]
   must return at least the highest index any client had seen
   acknowledged (or read) before [sent].  [completions] are
   [(at, index)] for every acked write and every completed read. *)
let stale_reads ~(completions : (float * int) list)
    (reads : (float * int) list) =
  let sorted = List.sort compare completions |> Array.of_list in
  let n = Array.length sorted in
  (* prefix maxima: [best.(k)] = highest index among the first k *)
  let best = Array.make (n + 1) 0 in
  Array.iteri (fun k (_, i) -> best.(k + 1) <- max best.(k) i) sorted;
  let before t =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst sorted.(mid) < t then lo := mid + 1 else hi := mid
    done;
    best.(!lo)
  in
  List.filter_map
    (fun (sent, got) ->
      let w = before sent in
      if got >= w then None
      else Some (Printf.sprintf "read sent at %.3f saw %d after %d" sent got w))
    reads

(* The final store equals the reference model built by applying the
   acknowledged writes in index order. *)
let final_state ~(reference : (int * (string * string)) list)
    (bindings : (string * string) list) =
  let model = Hashtbl.create 64 in
  List.iter
    (fun (_, (k, v)) -> Hashtbl.replace model k v)
    (List.sort compare reference);
  let expected =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
  in
  if expected = bindings then []
  else
    [
      Printf.sprintf
        "final store (%d keys) differs from the acked-write model (%d keys)"
        (List.length bindings) (List.length expected);
    ]
