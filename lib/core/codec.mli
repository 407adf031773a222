(** Canonical wire encoding: length-prefixed frames.  A field is
    [<len>:<bytes>] (a decimal length with no leading zero, a ':', then
    exactly [len] bytes), and a list is its frames back to back, so
    [join [] = ""].  Any byte sequence round trips, encodings are
    canonical, and decoding is strict: [None] for anything that is not
    exactly a sequence of frames. *)

val join : string list -> string

(** The fields of [s]; [Some []] for [""], and [None] when [s] is not
    exactly a sequence of frames (no digit, a leading zero, a length
    past the end, trailing bytes). *)
val split : string -> string list option

(** The first frame's payload, without reading the rest; [None] for
    [""] or a malformed first frame.  Wherever [split s = Some (f :: _)],
    [head s = Some f]; on a malformed tail it may still read the first
    frame. *)
val head : string -> string option

val join2 : string -> string -> string

val join3 : string -> string -> string -> string

val join4 : string -> string -> string -> string -> string

val split2 : string -> (string * string) option

val split3 : string -> (string * string * string) option

val split4 : string -> (string * string * string * string) option

val int_field : int -> string

(** Exactly what {!int_field} writes: ["0"] or [-?[1-9][0-9]*] within
    [int]'s range; [None] for anything else. *)
val int_of_field : string -> int option
