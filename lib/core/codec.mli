(** Canonical wire encoding: '|'-joined, percent-escaped fields.  Any byte
    sequence round trips; encodings are canonical. *)

val escape : string -> string

val unescape : string -> string

val join : string list -> string

val split : string -> string list

(** The first field of [split s], unescaped, without splitting the rest;
    [None] for [""].  [head s = List.nth_opt (split s) 0]. *)
val head : string -> string option

val join2 : string -> string -> string

val join3 : string -> string -> string -> string

val join4 : string -> string -> string -> string -> string

val split2 : string -> (string * string) option

val split3 : string -> (string * string * string) option

val split4 : string -> (string * string * string * string) option

val int_field : int -> string

val int_of_field : string -> int option
