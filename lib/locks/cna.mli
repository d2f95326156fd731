(** CNA (Compact NUMA-Aware lock, Dice & Kogan): MCS with a NUMA-aware
    release — the releaser hands the lock to the first waiter of its own
    cluster and moves the skipped remote waiters onto a secondary queue,
    spliced back in after [threshold] consecutive local hand-offs (the
    starvation bound), when the lock leaves the cluster, or when the main
    queue drains. The acquire path and the per-processor spin are stock
    MCS; the lock itself stays three words. *)

open Hector

type t

(** Raises [Invalid_argument] if [threshold < 1] or [topo] maps a
    processor out of range. *)
val create :
  ?home:int ->
  ?threshold:int ->
  ?vclass:string ->
  topo:Lock_core.topo ->
  Machine.t ->
  t

val default_threshold : int

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit
val is_free : t -> bool
val waiters : t -> bool
val acquisitions : t -> int

(** Waiters moved onto the secondary queue. *)
val moved : t -> int

(** Secondary-queue splices back into service. *)
val flushes : t -> int

val vclass : t -> Verify.lock_class
val vid : t -> int

(** Timed acquisition against an absolute deadline, on a separate
    per-processor timed node whose mark cell runs the MCS abandonment
    handshake. The release-side scan ignores marks; abandonment is
    discovered when a hand-off reaches the node, which is then unlinked
    (main or secondary queue alike) and the grant passed to its true
    successor. A claim-race loss takes the lock and returns [true] even
    past the deadline. The wait gets the whole budget [deadline - now]
    the caller had on entry, counted from after the node probe.
    [deadline <= now], or the timed node still abandoned in a queue,
    fails immediately with no side effects on the lock. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Dead-holder recovery: the thread-oblivious release runs the full CNA
    policy on a fail-stopped holder's behalf. *)
val recover : t -> Ctx.t -> bool
