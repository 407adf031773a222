(** Fixed-size domain pool over {!Task}s with a seed-ordered
    deterministic fold: results are folded in submission order
    regardless of completion order, so [-j 1] and [-j N] runs are
    byte-identical.  Tasks are pulled lazily and at most [2 * workers]
    of them are pending or unfolded at once, so a batch runs in memory
    proportional to its worker count, not its length.

    Exceptions raised by a task are captured into that task's result;
    the other tasks are unaffected. *)

type error = { task_label : string; task_seed : int; exn : exn }

(** [Domain.recommended_domain_count () - 1] (at least 1): one domain
    coordinates, the rest work. *)
val default_jobs : unit -> int

(** [fold ~jobs tasks ~init ~f] executes every task of [tasks] on
    [min jobs (length tasks)] worker domains ([jobs <= 1] runs inline on
    the calling domain) and folds the results with [f] in submission
    order, as they arrive.  [jobs] defaults to {!default_jobs}.

    [tasks] is pulled under the pool's lock, by whichever domain claims
    the next task, and only as far as the window needs: when [f]
    receives result [i], at most [i + 1 + 2 * workers] tasks have been
    pulled.  Pulling must not raise.  A worker starts task [i] only
    while [i < folded + 2 * workers], where [folded] counts the results
    [f] has returned from.  If [f] raises, the workers finish the tasks
    they hold and are joined, then the exception is re-raised. *)
val fold :
  ?jobs:int ->
  'r Task.t Seq.t ->
  init:'acc ->
  f:('acc -> ('r, error) result -> 'acc) ->
  'acc

(** [run_exn ~jobs tasks] is {!fold} into a list of the tasks' results
    in submission order, re-raising the first (in submission order)
    captured task exception; tasks after it may not run. *)
val run_exn : ?jobs:int -> 'r Task.t list -> 'r list
