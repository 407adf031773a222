(* Write-once synchronization variables ("ivars").

   An ivar starts empty and can be filled exactly once.  Fibers block on
   [await]; fills wake every waiter.  Used to represent the pending
   response of an outstanding memory operation, among other things: a
   crashed memory simply never fills the ivar, so the operation hangs
   forever — the paper's memory-crash semantics.

   Waiters carry a registration id so a caller that stops caring (a
   k-of-n quorum wait that already settled, a timed-out await) can
   deregister instead of leaving a dead callback queued on an ivar that
   may never fill. *)

type 'a waiter = { wid : int; notify : 'a -> unit }

type 'a state =
  | Empty of 'a waiter list (* waiters, in reverse registration order *)
  | Full of 'a

type 'a t = { mutable state : 'a state; mutable next_wid : int }

let create () = { state = Empty []; next_wid = 0 }

let full v = { state = Full v; next_wid = 0 }

let is_full t = match t.state with Full _ -> true | Empty _ -> false

let peek t = match t.state with Full v -> Some v | Empty _ -> None

let waiter_count t =
  match t.state with Empty ws -> List.length ws | Full _ -> 0

let fill t v =
  match t.state with
  | Full _ -> invalid_arg "Ivar.fill: already full"
  | Empty waiters ->
      t.state <- Full v;
      List.iter (fun w -> w.notify v) (List.rev waiters)

let try_fill t v = match t.state with Full _ -> false | Empty _ -> fill t v; true

(* [on_fill t f] calls [f v] when the ivar is filled — immediately if it
   already is.  Callbacks must be cheap; fiber wake-ups are scheduled
   as engine events so no user code runs re-entrantly. *)
let on_fill t f =
  match t.state with
  | Full v -> f v
  | Empty waiters ->
      let wid = t.next_wid in
      t.next_wid <- wid + 1;
      t.state <- Empty ({ wid; notify = f } :: waiters)

(* Like [on_fill], but returns a cancel function: calling it removes the
   waiter so the callback never runs.  Cancelling after the fill (or
   twice) is a no-op. *)
let on_fill_cancellable t f =
  match t.state with
  | Full v ->
      f v;
      fun () -> ()
  | Empty waiters ->
      let wid = t.next_wid in
      t.next_wid <- wid + 1;
      t.state <- Empty ({ wid; notify = f } :: waiters);
      fun () ->
        (match t.state with
        | Full _ -> ()
        | Empty ws -> t.state <- Empty (List.filter (fun w -> w.wid <> wid) ws))

let await t =
  match t.state with
  | Full v -> v
  | Empty _ -> Engine.suspend (fun _eng _fiber resume -> on_fill t resume)

(* [await_timeout t d] waits for the ivar for at most [d] time units.  On
   timeout the waiter is deregistered, so an ivar that never fills does
   not accumulate dead callbacks. *)
let await_timeout t delay =
  match t.state with
  | Full v -> Some v
  | Empty _ ->
      Engine.suspend (fun eng _fiber resume ->
          let settled = ref false in
          let cancel =
            on_fill_cancellable t (fun v ->
                if not !settled then begin
                  settled := true;
                  resume (Some v)
                end)
          in
          Engine.schedule eng delay (fun () ->
              if not !settled then begin
                settled := true;
                cancel ();
                resume None
              end))
