(** Binary min-heap of timestamped events, ordered by [(time, seq)].

    The sequence number breaks ties between events scheduled for the same
    instant, so the queue pops same-time events in insertion (FIFO) order and
    every simulation run is deterministic.

    Storage is structure-of-arrays. The heap proper is int columns only
    ([times] / [seqs] / [slots], by heap position); each payload sits in a
    stable slot of a separate [payloads] array, written once on [push] and
    read once on [pop_payload]. Sifting moves ints and never a boxed value,
    so the write barrier is paid once per push and once per pop rather than
    at every level, and the hot path ([push], [min_time], [pop_payload])
    allocates nothing except occasional capacity doublings. A popped slot is
    reset to the [filler] given to {!create}, so popped payloads are not kept
    reachable. The [entry]-record views ([peek] / [pop] / [drain]) are
    convenience wrappers that do allocate. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t

(** [create ~filler ()] is an empty queue. [filler] occupies every payload
    slot that holds no queued entry; use a static value (the engine passes a
    no-op thunk) so that it keeps nothing else alive. *)
val create : filler:'a -> unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push t ~time ~seq payload] inserts an event. [seq] must be unique per
    queue for deterministic ordering; the engine supplies a counter.
    Allocation-free except when the heap grows. *)
val push : 'a t -> time:int -> seq:int -> 'a -> unit

(** Earliest entry without removing it. Allocates the record. *)
val peek : 'a t -> 'a entry option

(** Timestamp of the earliest entry. Allocates the option. *)
val peek_time : 'a t -> int option

(** Timestamp of the earliest entry, or [max_int] when the queue is empty.
    Allocation-free; this is what the engine's run loop compares against. *)
val min_time : 'a t -> int

(** Remove and return the earliest entry. Allocates the record. *)
val pop : 'a t -> 'a entry option

(** Remove the earliest entry and return only its payload; allocation-free.
    @raise Invalid_argument on an empty queue — callers check [is_empty]. *)
val pop_payload : 'a t -> 'a

(** Drop every entry; their slots are reset to the filler. *)
val clear : 'a t -> unit

(** Pop everything, in order. Mainly for tests. *)
val drain : 'a t -> 'a entry list
