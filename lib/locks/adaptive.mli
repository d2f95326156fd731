(** Adaptive lock morphing: test&set → MCS → NUMA composite, driven by a
    sliding window of observed contention (Fissile-style, closing the loop
    the ROADMAP left open over the [lib/obs] profile).

    The lock carries three pre-created shapes sharing one lockdep class and
    routes arrivals through a one-word timed mode cell. Promotion is eager:
    once a quarter-window quorum of samples exists, every release checks
    whether the contended fraction crossed [up_contended] (and, for the
    step to the NUMA shape, whether the remote-hand-off fraction crossed
    [up_remote]). Demotion is conservative: only a full window whose
    contended fraction fell to [down_contended] shrinks the lock one step —
    the remote fraction is deliberately not a demotion trigger, because
    under the NUMA shape it is low precisely {e because} that shape
    localises hand-offs. The gap between [up_contended] and
    [down_contended] is the hysteresis that keeps a borderline load from
    thrashing shapes every window.

    Morph safety: an acquirer validates the mode cell {e after} acquiring
    the routed shape and, on a stale read, releases it (draining the old
    queue) and re-routes; only the critical-section owner writes the mode
    cell, and only once the target shape is free with no waiters. See
    [adaptive.ml] for the mutual-exclusion argument. *)

open Hector

(** [create ~name ~topo ~shapes machine] builds the morphing lock over
    [shapes = [| ts; queue; numa |]], three locks that must share one
    lockdep class (their distinct instance ids keep the checker's ledgers
    separate). The result is abortable (recoverable) iff all three shapes
    are. [home] places the mode word. The window is 8 acquisitions;
    promotion needs a contended fraction of 0.5 (and a remote-hand-off
    fraction of 0.4 for the NUMA step), demotion a contended fraction of
    at most 0.15; an acquire slower than 10 µs counts as contended, since
    the instantaneous sample cannot see a saturated test&set shape, whose
    word is free for most of the time between backed-off hand-offs.

    [recover] repairs a corpse that validated through its shape's own
    recover; otherwise (a crash inside an in-flight morph or drain — the
    corpse holds a shape but never became the Adaptive holder) it sweeps
    every shape's recover, each a no-op unless its registered holder
    really is dead. *)
val create :
  ?home:int ->
  ?vclass:string ->
  name:string ->
  topo:Lock_core.topo ->
  shapes:Lock_core.t array ->
  Machine.t ->
  Lock_core.t
