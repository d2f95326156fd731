(** HMCS (Chabbi, Fagan & Mellor-Crummey): a hierarchical MCS lock — one
    MCS queue per cluster plus a root MCS queue over clusters. The word a
    local waiter spins on doubles as the protocol channel: release writes
    the running pass count (root comes with the lock) or a sentinel telling
    the waiter to acquire the root itself. [threshold] bounds consecutive
    in-cluster hand-offs. Both levels use the fetch&store-only repair
    protocol (no compare&swap needed). *)

open Hector

type t

(** Raises [Invalid_argument] if [threshold < 1] or [topo] maps a
    processor out of range. An empty cluster's state is homed at
    [home]. *)
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

val vclass : t -> Verify.lock_class
val vid : t -> int

(** Timed acquisition (HMCS-T) against an absolute deadline: the waiter
    enqueues a separate per-processor timed node whose mark cell runs the
    MCS abandonment handshake — at {e both} tree levels (timed cnodes
    carry the root-level marks). A releaser collects abandoned nodes in
    passing, repairing the queue and, when an in-flight grant carried
    root ownership into a drained or usurped local queue, releasing the
    root on the cluster's behalf. A claim-race loss at the lock-granting
    level takes the lock and returns [true] even past the deadline; a
    claim-race loss that delivers only local headship passes it onward
    and fails. The wait gets the whole budget [deadline - now] the caller
    had on entry, counted from after the node probe. [deadline <= now], a
    timed qnode still abandoned in its local queue, or (at the promotion
    point) a timed cnode still abandoned in the root queue, fail with no
    lasting effect on the lock. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Dead-holder recovery: the thread-oblivious release unwinds both tree
    levels on a fail-stopped holder's behalf. *)
val recover : t -> Ctx.t -> bool
