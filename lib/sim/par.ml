(* Combinators for waiting on several outstanding operations.

   The paper's algorithms repeatedly issue an operation to every memory in
   parallel and continue once m - f_M of them complete ("wait for
   completion of m - fM iterations of pfor loop", Algorithm 7).

   Once a k-of-n wait settles (quorum reached, or timeout), every
   callback it registered on the still-unfilled ivars is deregistered:
   a memory that responds after the quorum is met finds no waiter and
   the late response is dropped, rather than queueing a dead closure on
   an ivar that may never fill (e.g. one owned by a crashed memory). *)

(* The filled (index, value) pairs, in index order. *)
let snapshot ivars =
  Array.to_list ivars
  |> List.mapi (fun i iv -> (i, Ivar.peek iv))
  |> List.filter_map (fun (i, v) ->
         match v with Some v -> Some (i, v) | None -> None)

(* Block until at least [k] of [ivars] are filled, or until [timeout]
   (if any) has passed since the wait began, then return the snapshot
   observed at that instant.  The timer is scheduled once the callbacks
   are registered, also when the wait already settled inside the
   suspension; it then finds the wait settled. *)
let wait ivars k ~timeout =
  let filled = Array.fold_left (fun acc iv -> if Ivar.is_full iv then acc + 1 else acc) 0 ivars in
  if filled >= k then snapshot ivars
  else begin
    Engine.suspend (fun eng fiber resume ->
        let count = ref filled and settled = ref false in
        let cancels = ref [] in
        let unhook = ref (fun () -> ()) in
        let settle () =
          if not !settled then begin
            settled := true;
            List.iter (fun cancel -> cancel ()) !cancels;
            cancels := [];
            !unhook ();
            resume ()
          end
        in
        Array.iter
          (fun iv ->
            if not (Ivar.is_full iv) then
              let cancel =
                Ivar.on_fill_cancellable iv (fun _ ->
                    if not !settled then begin
                      incr count;
                      if !count >= k then settle ()
                    end)
              in
              cancels := cancel :: !cancels)
          ivars;
        (* A crashed issuer abandons the wait: tear it down at cancel
           time so late completions — lagged ones in particular — find
           no waiter to wake and no callbacks leak on never-filled
           ivars.  The resume inside [settle] discontinues the fiber. *)
        unhook := Engine.on_cancel fiber settle;
        if !count >= k then settle ();
        match timeout with
        | Some delay -> Engine.schedule eng delay settle
        | None -> ());
    snapshot ivars
  end

(* [await_k ivars k] blocks until at least [k] of [ivars] are filled, then
   returns the filled (index, value) pairs observed at that instant, in
   index order.  Raises [Invalid_argument] if [k] exceeds the number of
   ivars (such a wait could never complete even without failures). *)
let await_k ivars k =
  if k > Array.length ivars then invalid_arg "Par.await_k: k larger than ivar count";
  wait ivars k ~timeout:None

(* Wait for all. *)
let await_all ivars = await_k ivars (Array.length ivars)

(* [await_k_timeout ivars k d]: like [await_k] but gives up after [d] time
   units, returning whatever completed. *)
let await_k_timeout ivars k delay =
  wait ivars (min k (Array.length ivars)) ~timeout:(Some delay)
