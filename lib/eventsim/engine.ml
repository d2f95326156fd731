(* Discrete-event engine.

   The engine owns the virtual clock and the event queue of thunks.
   Simulated code never blocks the OCaml runtime: anything that must wait
   re-schedules itself (see {!Process}). Time is measured in integer machine
   cycles.

   The queue has two levels. An event due fewer than [w] cycles after the
   clock when it is scheduled is near: it is appended to a timing wheel of
   [w] one-cycle buckets. A later event is far: it goes into [Pqueue], the
   binary heap, keyed by (time, seq). Spin iterations, RPC-reply polls and
   memory-access waits are nearly all near, so nearly every event costs an
   O(1) append and an O(1) pop instead of two heap sifts.

   Wheel. Bucket [b] is a FIFO of nodes on a circular list linked through
   the int array [next]: [last.(b)] is its newest node, whose successor is
   its oldest, and [last.(b) = -1] when it is empty. A node's thunk sits in
   its slot of [thunks], written once when it is scheduled and reset to
   [nop] when it is taken, so the wheel pays the write barrier as the heap
   does and keeps no run thunk reachable. Free nodes are a stack linked
   through [next] from [free]. Every near event is due in [now, now + w):
   it was due less than [w] cycles after the clock at its scheduling, and
   the clock never passes a queued event. Those are [w] consecutive times,
   so bucket [at land (w - 1)] holds events of one time only and no time is
   stored.

   Cursor. While the wheel is not empty, [now <= cursor <=] the time of its
   earliest event. [settle] moves the cursor over empty buckets, stopping at
   the heap's root time, and returns the earliest queued time; [dispatch]
   then takes the cursor bucket's oldest event if the cursor is strictly
   before the root, and the root otherwise. A scan never starts before
   [now] and never passes the next dispatched time, so its steps are
   bounded by the clock's advance, and since the cursor never lags [now] it
   cannot alias a bucket [w] cycles on.

   Order. Events run in (time, seq) order, seq counting [schedule] calls,
   exactly as a heap holding every event would run them:
   - A far event due at T was scheduled at or before T - w. A near event due
     at T was scheduled after T - w. The clock never goes back, so every far
     event due at T precedes every near event due at T in seq order, and at
     an equal time the heap's root goes first.
   - Near events due at T are appended to one bucket in scheduling order,
     which is seq order; the heap orders far events by (time, seq).
   So [events_executed], the [max_events] budget, [run ~until] and [pending]
   behave as with the heap alone.

   Dispatch allocates nothing: [settle] returns a bare int ([max_int] when
   drained), both levels hand back the thunk alone, and the wheel's node
   arrays only double when more near events are queued than ever before. All
   state is per engine. *)

exception Deadlock of string

(* Wheel span in cycles: a power of two. 99.9% of fig7d's events are due
   fewer than 256 cycles ahead; 64 and 1024 ran it no faster. *)
let w = 256

let mask = w - 1

type t = {
  mutable now : int;
  mutable seq : int;
  far : (unit -> unit) Pqueue.t;
  last : int array; (* by bucket: newest node; -1 = empty *)
  mutable next : int array; (* by node: successor in its bucket or free stack *)
  mutable thunks : (unit -> unit) array; (* by node *)
  mutable free : int; (* top of the free stack; -1 = none *)
  mutable near : int; (* events in the wheel *)
  mutable cursor : int;
  mutable executed : int;
  mutable max_events : int; (* safety valve against runaway simulations *)
}

let nop () = ()

(* [n] fresh nodes chained into a free stack from node [base]. *)
let chain ~base n = Array.init n (fun i -> if i + 1 < n then base + i + 1 else -1)

let create ?(max_events = 200_000_000) () =
  let nodes = 16 in
  {
    now = 0;
    seq = 0;
    far = Pqueue.create ~filler:nop ();
    last = Array.make w (-1);
    next = chain ~base:0 nodes;
    thunks = Array.make nodes nop;
    free = 0;
    near = 0;
    cursor = 0;
    executed = 0;
    max_events;
  }

let now t = t.now

let events_executed t = t.executed

(* Double the node arrays of a full wheel; the new nodes become the free
   stack. *)
let grow t =
  let cap = Array.length t.next in
  t.next <- Array.append t.next (chain ~base:cap cap);
  t.thunks <- Array.append t.thunks (Array.make cap nop);
  t.free <- cap

let push_near t at f =
  if t.free < 0 then grow t;
  let n = t.free in
  t.free <- t.next.(n);
  t.thunks.(n) <- f;
  let b = at land mask in
  let l = t.last.(b) in
  if l < 0 then t.next.(n) <- n
  else begin
    t.next.(n) <- t.next.(l);
    t.next.(l) <- n
  end;
  t.last.(b) <- n;
  if t.near = 0 || at < t.cursor then t.cursor <- at;
  t.near <- t.near + 1

let schedule t ~at f =
  if at < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%d is in the past (now=%d)" at t.now);
  let seq = t.seq in
  t.seq <- seq + 1;
  if at - t.now < w then push_near t at f else Pqueue.push t.far ~time:at ~seq f

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.now + delay) f

let pending t = t.near + Pqueue.length t.far

(* Earliest queued time, [max_int] when both levels are empty. Moves the
   cursor to the first non-empty bucket, or to the heap's root time if that
   comes first. *)
let settle t =
  let root = Pqueue.min_time t.far in
  if t.near = 0 then root
  else begin
    let last = t.last in
    let c = ref t.cursor in
    while !c < root && last.(!c land mask) < 0 do
      incr c
    done;
    t.cursor <- !c;
    if !c < root then !c else root
  end

(* Run the earliest event; [settle] has just been called on a non-empty
   queue. At an equal time the heap's root goes first. *)
let dispatch t =
  let f =
    if t.near > 0 && t.cursor < Pqueue.min_time t.far then begin
      let b = t.cursor land mask in
      let l = t.last.(b) in
      let n = t.next.(l) in
      if n = l then t.last.(b) <- -1 else t.next.(l) <- t.next.(n);
      let f = t.thunks.(n) in
      t.thunks.(n) <- nop;
      t.next.(n) <- t.free;
      t.free <- n;
      t.near <- t.near - 1;
      t.now <- t.cursor;
      f
    end
    else begin
      t.now <- Pqueue.min_time t.far;
      Pqueue.pop_payload t.far
    end
  in
  t.executed <- t.executed + 1;
  f ()

let step t =
  if pending t = 0 then false
  else begin
    ignore (settle t : int);
    dispatch t;
    true
  end

let budget_exhausted t =
  raise
    (Deadlock
       (Printf.sprintf "event budget exhausted (%d events executed)"
          t.max_events))

let run ?until t =
  let limit = match until with None -> max_int | Some l -> l in
  while pending t > 0 && settle t <= limit do
    (* Refuse the event that would exceed the budget, so exactly
       [max_events] run. *)
    if t.executed >= t.max_events then budget_exhausted t;
    dispatch t
  done;
  match until with
  | Some limit when t.now < limit && pending t = 0 -> t.now <- limit
  | _ -> ()
