(** Ticket lock with proportional backoff — the cheapest fair lock: two
    words regardless of processor count, all waiters spinning on one word.
    Requires a CAS machine (fetch&increment is a CAS retry loop). *)

open Hector

type t

val create : ?home:int -> ?spin_unit:int -> ?vclass:string -> Machine.t -> t

val acquisitions : t -> int
val is_free : t -> bool

(** Untimed hint: a ticket is outstanding behind the one being served. *)
val waiters : t -> bool

val vclass : t -> Verify.lock_class
val vid : t -> int

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Dead-holder recovery: retire a fail-stopped holder's ticket (advance
    [owner] on its behalf). Waiters also run it from inside their own
    spin, which is what makes the lock recoverable though a drawn ticket
    cannot be handed back — the lock has no abortable timed face. *)
val recover : t -> Ctx.t -> bool
