(* Canonical wire encoding for register contents and signed payloads.

   Register values and signed messages travel as strings.  Fields are
   joined with '|' after percent-escaping, so any byte sequence round
   trips and signed payloads are canonical (no two field lists share an
   encoding). *)

(* The empty field escapes to "%e" so that the empty *list* can own the
   empty encoding: join [] = "" and join [""] = "%e" stay distinct.
   Both directions copy the runs between special characters whole, and
   a field with nothing to rewrite is returned as it is. *)
let escape s =
  if s = "" then "%e"
  else if not (String.exists (fun c -> c = '|' || c = '%') s) then s
  else begin
    let len = String.length s in
    let buf = Buffer.create (len + 8) in
    let run_start = ref 0 in
    String.iteri
      (fun i c ->
        if c = '|' || c = '%' then begin
          Buffer.add_substring buf s !run_start (i - !run_start);
          Buffer.add_string buf (if c = '|' then "%7c" else "%25");
          run_start := i + 1
        end)
      s;
    Buffer.add_substring buf s !run_start (len - !run_start);
    Buffer.contents buf
  end

(* Lenient by design: a '%' that does not start "%7c" or "%25" stays a
   literal '%', and "%e" is special only as a whole field. *)
let unescape s =
  if s = "%e" then ""
  else if not (String.contains s '%') then s
  else begin
    let len = String.length s in
    let buf = Buffer.create len in
    let rec go run_start i =
      match String.index_from_opt s i '%' with
      | None -> Buffer.add_substring buf s run_start (len - run_start)
      | Some j ->
          let decoded =
            if j + 2 >= len then None
            else
              match (s.[j + 1], s.[j + 2]) with
              | '7', 'c' -> Some '|'
              | '2', '5' -> Some '%'
              | _ -> None
          in
          (match decoded with
          | Some c ->
              Buffer.add_substring buf s run_start (j - run_start);
              Buffer.add_char buf c;
              go (j + 3) (j + 3)
          | None -> go run_start (j + 1))
    in
    go 0 0;
    Buffer.contents buf
  end

let join fields = String.concat "|" (List.map escape fields)

let split s =
  if s = "" then [] else List.map unescape (String.split_on_char '|' s)

(* [split]'s first field without touching the rest, so a decoder can
   dispatch on a tag (or read a leading index) in O(length of the
   field) instead of O(length of the message). *)
let head s =
  if s = "" then None
  else
    match String.index_opt s '|' with
    | None -> Some (unescape s)
    | Some i -> Some (unescape (String.sub s 0 i))

(* Fixed-arity helpers used by the protocol codecs; decoding failures
   return [None] — a Byzantine process may write arbitrary bytes. *)

let join2 a b = join [ a; b ]

let join3 a b c = join [ a; b; c ]

let join4 a b c d = join [ a; b; c; d ]

let split2 s = match split s with [ a; b ] -> Some (a, b) | _ -> None

let split3 s = match split s with [ a; b; c ] -> Some (a, b, c) | _ -> None

let split4 s = match split s with [ a; b; c; d ] -> Some (a, b, c, d) | _ -> None

let int_field i = string_of_int i

let int_of_field s = int_of_string_opt s
