(* Binary min-heap of timestamped events, flattened to structure-of-arrays.

   Events are ordered by (time, seq): the sequence number breaks ties so that
   events scheduled for the same instant run in FIFO order, which keeps every
   simulation deterministic.

   Only int columns move. The heap itself is three int arrays indexed by heap
   position: [times], [seqs], and [slots], which names the payload slot that
   holds the entry's payload. A payload is written once into its slot of
   [payloads] on [push] and read once on [pop_payload]; sifting never touches
   it. Storing a boxed value into an array goes through OCaml's write barrier
   ([caml_modify], a C call), so moving payloads would pay that barrier at
   every level of every sift; fixed slots pay it once per push and once per
   pop.

   The slot column is a permutation of [0, capacity): positions [0, len) hold
   the slots of queued entries, and the tail [len, capacity) is the stack of
   free slots. [push] takes the free slot at [slots.(len)]; [pop_payload]
   returns the root's slot to the tail. A popped slot is reset to the
   [filler] given at creation, so the heap never keeps a popped payload
   reachable.

   Sifting carries a hole: the moving entry is held in locals, each level
   writes one parent (or child) into the hole, and the entry is stored once
   at the end. The loops use no local closures, so [push], [min_time] and
   [pop_payload] allocate nothing; the only allocations ever made are the
   occasional capacity doublings. The record-returning [peek] / [pop] /
   [drain] views are kept for tests and casual callers. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable times : int array; (* by heap position *)
  mutable seqs : int array; (* by heap position *)
  mutable slots : int array; (* heap position -> payload slot; tail = free *)
  mutable payloads : 'a array; (* by slot *)
  mutable len : int;
  filler : 'a;
}

let create ~filler () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; len = 0; filler }

let length t = t.len
let is_empty t = t.len = 0

(* (t1, s1) sorts before (t2, s2). The int annotation makes [<] a machine
   compare rather than the polymorphic [compare] call. *)
let[@inline] earlier (t1 : int) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

(* Double the capacity of a full heap. Every old slot is in use, so the new
   slots [cap, ncap) form the whole free tail, each at its own position. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make ncap 0 in
  let seqs = Array.make ncap 0 in
  let slots = Array.init ncap (fun i -> i) in
  let payloads = Array.make ncap t.filler in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.payloads 0 payloads 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.payloads <- payloads

let push t ~time ~seq payload =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.len) in
  t.payloads.(slot) <- payload;
  (* Sift up: move each later parent down into the hole. *)
  let hole = ref t.len in
  let sifting = ref true in
  while !sifting && !hole > 0 do
    let parent = (!hole - 1) / 2 in
    let tp = times.(parent) in
    if earlier time seq tp seqs.(parent) then begin
      times.(!hole) <- tp;
      seqs.(!hole) <- seqs.(parent);
      slots.(!hole) <- slots.(parent);
      hole := parent
    end
    else sifting := false
  done;
  times.(!hole) <- time;
  seqs.(!hole) <- seq;
  slots.(!hole) <- slot;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then None
  else
    Some
      {
        time = t.times.(0);
        seq = t.seqs.(0);
        payload = t.payloads.(t.slots.(0));
      }

let peek_time t = if t.len = 0 then None else Some t.times.(0)

(* Allocation-free view of the earliest timestamp: [max_int] when empty, so
   the engine's run loop can compare against a limit without an option. *)
let min_time t = if t.len = 0 then max_int else t.times.(0)

(* Remove the root, returning only its payload; allocation-free. The last
   entry fills the root's hole and sifts down; the root's slot, reset to the
   filler, joins the free tail at the position the last entry vacated. *)
let pop_payload t =
  if t.len = 0 then invalid_arg "Pqueue.pop_payload: empty";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = slots.(0) in
  let payload = t.payloads.(top) in
  t.payloads.(top) <- t.filler;
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    (* Sift down: move each earlier child up into the hole. *)
    let hole = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !hole) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && earlier times.(r) seqs.(r) times.(l) seqs.(l) then r
          else l
        in
        let tc = times.(c) in
        if earlier tc seqs.(c) time seq then begin
          times.(!hole) <- tc;
          seqs.(!hole) <- seqs.(c);
          slots.(!hole) <- slots.(c);
          hole := c
        end
        else sifting := false
      end
    done;
    times.(!hole) <- time;
    seqs.(!hole) <- seq;
    slots.(!hole) <- slot
  end;
  slots.(n) <- top;
  payload

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and seq = t.seqs.(0) in
    let payload = pop_payload t in
    Some { time; seq; payload }
  end

(* Queued slots are reset to the filler; the slot column stays a
   permutation, so the whole of it becomes the free tail. *)
let clear t =
  for i = 0 to t.len - 1 do
    t.payloads.(t.slots.(i)) <- t.filler
  done;
  t.len <- 0

(* Pop all entries in order; used by tests. *)
let drain t =
  let rec go acc =
    match pop t with
    | None -> List.rev acc
    | Some e -> go (e :: acc)
  in
  go []
