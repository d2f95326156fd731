(** CLH queue lock (Craig; Landin & Hagersten) — the queue lock the paper's
    Section 5.2 weighs against MCS.

    A waiter spins on its *predecessor's* node and adopts that node on
    release, so nodes migrate between processors. With coherent caches the
    spin is local until the hand-off invalidation; on HECTOR it is remote
    memory traffic — the ABL4 experiment measures the contrast. *)

open Hector

type t

val create : ?home:int -> ?vclass:string -> Machine.t -> t

val acquisitions : t -> int

val is_free : t -> bool

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** Untimed hint: a waiter has enqueued behind the holder. *)
val waiters : t -> bool

val vclass : t -> Verify.lock_class
val vid : t -> int

(** Timed acquisition against an absolute deadline, on a separate
    per-processor timed node (so untimed acquisitions never go
    node-less). A CLH node cannot be unlinked, so a timed-out waiter
    abandons {e by value}: it writes [pred + 2] into its node and leaves;
    the unique processor spinning on that node follows the redirect to
    [pred] and returns the node to its owner. The level-triggered release
    signal (the 0 persists) makes the abandonment race-free without a
    claim handshake. [deadline <= now], or the processor's timed node
    still abandoned in the queue, fails immediately with no side effects
    on the lock. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Dead-holder recovery: run a fail-stopped holder's release on its
    behalf (the grant is level-triggered, so the successor picks it up as
    if the holder had released in time). On a free lock whose caller's
    timed node is still abandoned in the queue, pump the queue with an
    acquire/release pair that walks the redirect chain and returns the
    node; that pump is not a recovery and returns [false]. *)
val recover : t -> Ctx.t -> bool
