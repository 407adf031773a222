(* An attribute grants only the rules it names: this file-wide D1 allow
   hides neither D4 finding, and, excusing nothing, is itself stale. *)
[@@@simlint.allow "D1"]
let same a b = a == b
let diff a b = a != b
