(** Spin-then-block lock (Section 5.3, the TORNADO direction).

    Waiters spin briefly, then park on the lock's wait list — no events, no
    memory traffic — until a releaser hands the lock over directly and
    wakes them. The uncontended path is a test&set. *)

open Hector

type t

(** [create machine] with a [spin_us] spinning budget before blocking. *)
val create : ?home:int -> ?spin_us:float -> ?vclass:string -> Machine.t -> t

(** Completed acquisitions, successful [try_acquire] included. *)
val acquisitions : t -> int

(** Waiters that exhausted the spin budget and parked. *)
val blocks : t -> int

(** Releases that woke a parked waiter (direct hand-off; the flag never
    clears). *)
val handoffs : t -> int

val is_held : t -> bool

(** Untimed hint: some waiter is parked on the wait list (spinners are
    invisible). *)
val waiters : t -> bool

val vclass : t -> Verify.lock_class
val vid : t -> int

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Single test&set attempt, never blocking; true if the lock was
    obtained. *)
val try_acquire : t -> Ctx.t -> bool
