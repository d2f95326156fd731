(** MCS distributed locks (fetch&store variant) with the paper's H1/H2
    modifications and the Section 3.2 TryLock extensions.

    Queue nodes live in their owner's local memory, so waiters spin locally;
    the release repairs the queue when its unconditional fetch&store removed
    waiters ("victims"), grafting them behind any "usurper" that slipped in.

    - [Original]: Figure 3a — acquire initialises its queue node; release
      checks for a successor before touching the lock word.
    - [H1]: nodes pre-initialised; the initialisation store leaves the
      uncontended acquire path (re-initialisation happens on the contended
      path only).
    - [H2]: additionally drops the successor check from release; uncontended
      release is a single fetch&store, at the price of a constant repair
      overhead under contention. *)

open Hector

type variant = Original | H1 | H2

val variant_name : variant -> string

type t

(** [create machine] makes a lock whose word lives on PMM [home] (default
    0). [use_cas_release] switches the release to compare&swap (Section 5.2
    ablation; requires a CAS-capable machine config). [track_in_use]
    maintains the per-node in-use flag required by {!try_acquire_v1}. *)
val create :
  ?variant:variant ->
  ?home:int ->
  ?use_cas_release:bool ->
  ?track_in_use:bool ->
  ?vclass:string ->
  Machine.t ->
  t

val acquisitions : t -> int

(** Releases that found [old_tail <> I] and had to repair the queue. *)
val repairs : t -> int

val try_failures : t -> int

(** Abandoned TryLock nodes collected by releases. *)
val gc_count : t -> int

(** Deadline expiries in {!try_acquire_for}, fail-fast refusals
    included. *)
val timeouts : t -> int

(** Untimed; for test assertions. *)
val is_held : t -> bool

val is_free : t -> bool
val holder_proc : t -> int option

(** Untimed hint: someone is queued behind the holder (an abandoned node
    counts too — the hint may overshoot). *)
val waiters : t -> bool

val vclass : t -> Verify.lock_class
val vid : t -> int

val acquire : t -> Ctx.t -> unit
val release : t -> Ctx.t -> unit

(** TryLock variant 1: fails only when the caller's own queue node is in
    use (i.e. the interrupt arrived on the lock holder's processor);
    otherwise enqueues and waits. Requires [~track_in_use:true]. *)
val try_acquire_v1 : t -> Ctx.t -> bool

(** TryLock variant 2: a true TryLock on the caller's interrupt node. On
    failure the node is abandoned in the queue for release to collect. *)
val try_acquire_v2 : t -> Ctx.t -> bool

(** Acquire against an absolute deadline ([Machine.now] units), on the
    caller's interrupt node: enqueue and spin like {!acquire}, but give up
    once the deadline passes, abandoning the node in the queue for release
    to collect (the TryLock-v2 GC machinery). The spin gets the whole
    budget [deadline - now] the caller had on entry, counted from after
    the node probe. An atomic mark handshake resolves the race between a
    hand-off and an abandonment, so a timed-out waiter that lost the race
    still takes the lock (returns [true]). Returns [false] — with the
    caller holding nothing — when the node is still queued from an earlier
    timeout or the deadline expired.

    Edge semantics: [deadline <= now] (an already-expired deadline) fails
    immediately with {e no} side effects on the lock — no enqueue, no
    memory traffic, no verification hooks; only the {!timeouts} counter
    advances. *)
val try_acquire_for : t -> Ctx.t -> deadline:int -> bool

(** Dead-holder recovery: if the current holder has fail-stopped (per
    the machine's liveness oracle), run {!release} on the corpse's behalf
    — hand-off and abandoned-node GC included — and return [true].
    Returns [false] when the lock is free, the holder is alive, or another
    recoverer is already at work. *)
val recover : t -> Ctx.t -> bool
