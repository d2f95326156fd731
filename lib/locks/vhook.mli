(** Verification hook sites shared by the lock implementations: each call
    is one branch when no checker is installed on the machine, and pure
    host-side bookkeeping (no simulated cycles) when one is. *)

open Hector

(** [on ctx f] applies [f] to the installed checker, if any. *)
val on : Ctx.t -> (Verify.t -> unit) -> unit

(** [obs ctx f] applies [f] to the installed contention observer, if
    any. *)
val obs : Ctx.t -> (Obs.t -> unit) -> unit

(** A blocking acquisition is entering its wait (call before the first
    spin, even if the lock turns out free). *)
val wait_acquire : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

(** The blocking acquisition succeeded. *)
val acquired : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

(** A non-blocking acquisition succeeded (no [wait_acquire] was issued). *)
val try_acquired : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

(** A {e timed} blocking acquisition is entering its wait: the checker gets
    a {!Verify.wait_acquire_timed} frame (no order edges, skipped by the
    watchdog), the observer an ordinary wait. Balance with {!acquired} or
    {!wait_abandoned}. *)
val wait_acquire_timed : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

(** A hand-off reclaimed a node some timed waiter abandoned (observer
    only). *)
val abandon_repaired : Ctx.t -> cls:Verify.lock_class -> unit

(** The blocking acquisition timed out and gave up. *)
val wait_abandoned : Ctx.t -> unit

(** A recovery forced the hand-off a dead holder [dead] will never
    perform; the observer records it against the {e victim's} cluster with
    the detection-to-repair latency (now minus the kill time). The checker
    needs no call of its own: the forced release reaches it through
    {!released}, which legalises the transfer when the registered holder is
    dead. *)
val recovered : Ctx.t -> cls:Verify.lock_class -> dead:int -> unit

(** Ownership of a held lock moved to the calling processor without a
    release/acquire pair (a cohort pass recipient inheriting the global
    constituent lock). Checker only. *)
val transferred : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

val released : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

(** An optimistic read (seqlock sample) aborted: observer only — nothing
    was ever held, so there is nothing for the checker to balance. *)
val optimistic_abort : Ctx.t -> cls:Verify.lock_class -> unit

(** {2 Shared (reader-side) faces of an RW lock}

    Lockdep-wise these are ordinary acquisitions — the checker's
    per-processor held lists make concurrent shared holders of one
    instance legal without special casing; a blocking shared acquire
    still records order edges because a reader {e can} be the waiting
    side of a deadlock when a writer gates it. The observer additionally
    tracks the concurrent-reader gauge ({!Obs.rw_read_peak}). Use a
    distinct reader class (e.g. ["foo.read"]) so reader and writer rows
    separate in the profile while sharing the composite's instance id
    for hand-off locality. *)

(** The blocking shared acquisition of a {!wait_acquire} succeeded. *)
val acquired_shared : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

(** A shared hold ended. *)
val released_shared : Ctx.t -> cls:Verify.lock_class -> id:int -> unit

(** A recoverer swept a shared hold off fail-stopped processor [dead]
    (maps to {!Verify.released_dead}: the dead-holder legalisation of
    {!released} cannot apply, since the registered holder of a shared
    instance may be a different, live reader). *)
val released_dead :
  Ctx.t -> cls:Verify.lock_class -> id:int -> dead:int -> unit
