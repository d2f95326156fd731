(** Anderson's array-based queue lock: a fetch&increment hands each waiter
    a private array slot to spin on; release flips the next slot. Fair,
    hot-spot free — and P words per lock, the space cost that made the
    paper prefer per-processor MCS nodes (Section 5.2). Requires a CAS
    machine. *)

open Hector

type t

val create : ?home:int -> ?vclass:string -> Machine.t -> t

val acquisitions : t -> int
val is_free : t -> bool

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Untimed hint: a slot has been issued past the holder's. *)
val waiters : t -> bool

val vclass : t -> Verify.lock_class
val vid : t -> int

(** Timed acquisition against an absolute deadline, by slot forfeiture: a
    timed-out waiter swaps the forfeit mark (2) into its slot — a swap
    returning the grant (1) means the hand-off already committed, so the
    waiter takes the lock and returns [true] even past the deadline.
    Releases grant timed claimants with CAS(0 -> 1) and skip+reset
    forfeited slots. The slot ring holds 2P+1 entries so concurrent issues
    never collide. [deadline <= now], or an earlier forfeit of this
    processor not yet skipped by a release, fails immediately with no side
    effects on the lock. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Dead-holder recovery: run a fail-stopped holder's release on its
    behalf, forfeited-slot skipping included. *)
val recover : t -> Ctx.t -> bool
