(* Seeded open-loop request schedules.  Everything the system under test
   receives is generated here from the benchmark's seed, before the
   timed section starts. *)

type op = Set of { key : string; value : string } | Read

type request = { id : int; due : float; op : op }

type keys = Uniform | Zipf of float

type spec = {
  rate : float;  (** Poisson arrival rate, requests per virtual delay *)
  count : int;  (** requests in the schedule *)
  read_share : float;
  keys : keys;
  key_space : int;
  value_bytes : int;
}

let key_name i = Printf.sprintf "k%04d" i

(* Zipf CDF over ranks 1..n with exponent [s]. *)
let zipf_cdf ~s n =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* Smallest index whose CDF value reaches [u]. *)
let search cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

(* Values embed the request id, so every acknowledged write can be
   found at its index in the log; the rest is seeded filler. *)
let value rng ~id ~bytes =
  let tag = Printf.sprintf "r%d-" id in
  let filler =
    String.init
      (max 0 (bytes - String.length tag))
      (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)])
  in
  tag ^ filler

(* The schedule for stream [stream] of the run seeded [seed]: Poisson
   arrivals from t = 0, each a write or a read by [read_share]. *)
let generate spec ~seed ~stream =
  let rng = Random.State.make [| seed; stream |] in
  let cdf =
    match spec.keys with
    | Uniform -> None
    | Zipf s -> Some (zipf_cdf ~s spec.key_space)
  in
  let t = ref 0.0 in
  Array.init spec.count (fun id ->
      t := !t -. (Float.log (1.0 -. Random.State.float rng 1.0) /. spec.rate);
      let op =
        if Random.State.float rng 1.0 < spec.read_share then Read
        else
          let k =
            match cdf with
            | None -> Random.State.int rng spec.key_space
            | Some cdf -> search cdf (Random.State.float rng 1.0)
          in
          Set { key = key_name k; value = value rng ~id ~bytes:spec.value_bytes }
      in
      { id; due = !t; op })

let writes reqs =
  Array.fold_left
    (fun n r -> match r.op with Set _ -> n + 1 | Read -> n)
    0 reqs
