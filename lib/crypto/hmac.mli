(** HMAC-SHA256 (RFC 2104). *)

(** A secret with its two HMAC midstates: the hash states after
    absorbing [K ⊕ ipad] and [K ⊕ opad].  Building one costs two SHA-256
    compressions, which every later {!mac_parts} under it saves. *)
type key

val key : string -> key

(** [mac_parts key parts] is the 32-byte MAC of the concatenation of
    [parts], fed to the hash one part at a time. *)
val mac_parts : key -> string list -> string

(** [mac ~key message] is the 32-byte MAC: {!mac_parts} under a fresh
    {!key}. *)
val mac : key:string -> string -> string

val mac_hex : key:string -> string -> string

(** Timing-safe digest comparison. *)
val equal : string -> string -> bool
