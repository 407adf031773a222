(* Canonical wire encoding for register contents and signed payloads.

   Register values and signed messages travel as strings.  A field is
   one frame: its length in decimal, a ':', then exactly that many
   bytes.  A list of fields is its frames back to back, so join [] = ""
   and join [""] = "0:".  Nothing is escaped, so a field that holds an
   encoding costs a few header bytes per nesting level, and any byte
   sequence round trips.

   Decoding is total and strict: a length with a leading zero, no digit,
   no ':', a length past the end, or bytes after the last frame make the
   whole string malformed ([None]).  A Byzantine writer may store any
   bytes, and signed payloads must stay canonical: each field list has
   exactly one encoding, and each encoding one field list. *)

(* Decimal digits of a length (a non-negative int). *)
let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let join fields =
  let size =
    List.fold_left
      (fun acc f ->
        let len = String.length f in
        acc + digits len + 1 + len)
      0 fields
  in
  let buf = Bytes.create size in
  let rec put_length last n =
    Bytes.set buf last (Char.chr (Char.code '0' + (n mod 10)));
    if n >= 10 then put_length (last - 1) (n / 10)
  in
  let put pos f =
    let len = String.length f in
    let colon = pos + digits len in
    put_length (colon - 1) len;
    Bytes.set buf colon ':';
    Bytes.blit_string f 0 buf (colon + 1) len;
    colon + 1 + len
  in
  ignore (List.fold_left put 0 fields);
  Bytes.unsafe_to_string buf

(* The payload length of the frame that starts at [pos], or -1 when no
   well-formed frame starts there.  The payload starts right after the
   header, at [pos + digits len + 1]: a canonical length has no leading
   zero, so its header width is determined by its value.  The running
   length is cut off as soon as it exceeds what is left of [s], so no
   header, however long, can overflow. *)
let frame_length s pos =
  let n = String.length s in
  let rec go i len =
    if i >= n then -1
    else
      match s.[i] with
      | ':' ->
          if i = pos || (s.[pos] = '0' && i > pos + 1) || len > n - i - 1 then -1
          else len
      | '0' .. '9' as c ->
          let len = (len * 10) + (Char.code c - Char.code '0') in
          if len > n then -1 else go (i + 1) len
      | _ -> -1
  in
  go pos 0

let split s =
  let n = String.length s in
  let rec go pos acc =
    if pos = n then Some (List.rev acc)
    else
      let len = frame_length s pos in
      if len < 0 then None
      else
        let start = pos + digits len + 1 in
        go (start + len) (String.sub s start len :: acc)
  in
  go 0 []

(* One frame, without reading the rest, so a decoder can dispatch on a
   tag (or read a leading index) in O(length of the field) instead of
   O(length of the message). *)
let head s =
  let len = frame_length s 0 in
  if len < 0 then None else Some (String.sub s (digits len + 1) len)

(* Fixed-arity helpers used by the protocol codecs; decoding failures
   return [None] — a Byzantine process may write arbitrary bytes. *)

let join2 a b = join [ a; b ]

let join3 a b c = join [ a; b; c ]

let join4 a b c d = join [ a; b; c; d ]

let split2 s = match split s with Some [ a; b ] -> Some (a, b) | _ -> None

let split3 s = match split s with Some [ a; b; c ] -> Some (a, b, c) | _ -> None

let split4 s = match split s with Some [ a; b; c; d ] -> Some (a, b, c, d) | _ -> None

let int_field i = string_of_int i

(* Only what [string_of_int] writes: "0", or an optional '-' and a
   nonzero digit followed by digits, within [int]'s range.  So "+5",
   "0x1f", "1_000", "007" and "-0" are rejected, and every integer has
   exactly one encoding. *)
let int_of_field s =
  let n = String.length s in
  let first = if n > 0 && s.[0] = '-' then 1 else 0 in
  let rec all_digits i =
    i >= n || (match s.[i] with '0' .. '9' -> all_digits (i + 1) | _ -> false)
  in
  if s = "0" then Some 0
  else if n = first || s.[first] = '0' || not (all_digits first) then None
  else int_of_string_opt s
