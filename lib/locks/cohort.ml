(* Lock cohorting (Dice, Marathe & Shavit): a generic combinator that
   turns any per-cluster local lock plus any global lock into a NUMA-aware
   lock.

   The composite's invariant: a processor is in the critical section iff it
   holds its cluster's local lock AND its cluster owns the global lock.
   Ownership of the global lock is a *cluster* property ([owned]): a
   releaser that sees local waiters hands the local lock over without
   touching the global one, so the lock — and the data it protects — stay
   in the cluster's memory across consecutive critical sections. That is
   the paper's hierarchical-clustering insight pushed into the lock itself:
   hand-offs are cluster-local until either the cohort drains or the
   [max_handoffs] fairness bound trips, and only then does the global lock
   change hands (one cross-cluster transfer per cohort session instead of
   one per critical section).

   The combinator takes its constituents as {!Lock_core.t} records, so
   the algorithms can be chosen at runtime ([Lock.make] builds each one
   with a recursive [make] call). Requirements on the constituents (the
   cohorting paper's terms):
   - the global lock must be *thread-oblivious* — acquired by one processor
     of a cluster, released by another. Every lock in this library
     qualifies: their release paths work from the releasing context, not a
     remembered owner. (Their [holder] bookkeeping is assertion-only and
     updated on every hand-off.)
   - the local lock must answer "is anyone behind me?" ([waiters]); a
     conservative [false] (spin locks) degrades locality, never safety.

   One hazard is specific to this simulator's MCS TryLock: a failed
   composite [try_acquire] can leave an abandoned node in the local queue,
   so a pass-release may hand the local lock to a node whose owner already
   left; the local release then GC-collects it and the local lock comes out
   *free* while the cluster still owns the global lock. The pass therefore
   uses an explicit handshake: the releaser writes a fresh generation
   token into [pass_token] before releasing the local lock, and whoever
   completes a local acquire zeroes it (host-side, in the same step its
   acquire returns). A pass that comes back with the releaser's *own*
   token still in place *and* the local lock free reached nobody, and is
   demoted to a full release. Checking [is_free] alone would be wrong:
   the local release's own trailing timed operations (the H1/H2 deferred
   re-initialisation) let the successor run — it can take the pass, do a
   full release of its own and leave the local lock free, and the demote
   would then release the global lock a second time. Nor would a boolean
   flag do: those same trailing operations let two pass-releases overlap,
   and the earlier releaser's check would read the *later* releaser's
   freshly-raised flag (plus a local lock momentarily free mid-hand-off)
   and demote while the cohort session is still live. The token makes a
   stale check inert — any acquire or later pass has overwritten it.

   The demote itself needs one more guard: it releases the global lock
   *after* the local lock is back in circulation (the full-release path
   orders these the other way around), so a cluster-mate could acquire
   the local lock, see [owned] false and enqueue on the global lock while
   the demoted release is still in flight. If that mate is the processor
   that opened the session, it re-enqueues the very MCS node the release
   is operating on, and the hand-off is lost — both sides spin forever.
   [demoting] closes the window: an acquirer that finds it raised waits
   it out (short, bounded by the global release's few timed operations)
   before touching the global lock. *)

open Hector

let default_max_handoffs = 16

type t = {
  locals : Lock_core.t array; (* one per cluster *)
  global : Lock_core.t;
  owned : bool array; (* cluster currently owns the global lock *)
  passes : int array; (* consecutive local hand-offs this cohort session *)
  pass_token : int array; (* 0 = none; else the in-flight pass's generation *)
  mutable token_ctr : int; (* generation source for [pass_token] *)
  demoting : bool array; (* a demoted global release is in flight *)
  max_handoffs : int;
  cluster_of : int -> int;
  recoverable : bool; (* every constituent recoverable *)
  mutable holder : int; (* processor in the critical section; -1 = none *)
  mutable recovering : bool; (* serialises dead-holder recoverers *)
  mutable acquisitions : int;
  vcls : Verify.lock_class;
  vid : int;
}

let is_free t =
  t.global.is_free ()
  && Array.for_all (fun (l : Lock_core.t) -> l.is_free ()) t.locals
  && not (Array.exists Fun.id t.owned)

let waiters t =
  Array.exists (fun (l : Lock_core.t) -> l.waiters ()) t.locals
  || t.global.waiters ()

let cluster t ctx = t.cluster_of (Ctx.proc ctx)

let got_lock t ctx =
  assert (t.holder = -1);
  t.holder <- Ctx.proc ctx;
  t.acquisitions <- t.acquisitions + 1;
  Vhook.acquired ctx ~cls:t.vcls ~id:t.vid

let acquire t ctx =
  Vhook.wait_acquire ctx ~cls:t.vcls ~id:t.vid;
  let c = cluster t ctx in
  t.locals.(c).acquire ctx;
  (* Accept any in-flight pass before the next timed operation: the
     releaser's demote check must see either the token overwritten or the
     local lock still occupied (see the header). *)
  t.pass_token.(c) <- 0;
  (* A demoted global release may still be in flight; wait it out before
     touching the global lock (see the header). *)
  while t.demoting.(c) do
    Ctx.work ctx 10
  done;
  (* [owned] is only ever read or written by the holder of cluster [c]'s
     local lock, so this host-side check cannot race. *)
  Ctx.instr ctx ~br:1 ();
  if not t.owned.(c) then begin
    t.global.acquire ctx;
    t.owned.(c) <- true;
    t.passes.(c) <- 0
  end
  else
    (* Inherited an open cohort session: the still-held global lock is now
       ours to release (or pass on). The checker's registered holder must
       follow the session, or the eventual global release looks foreign —
       host-side only, no simulated cost. *)
    t.global.transferred ctx;
  got_lock t ctx

let try_acquire t ctx =
  let c = cluster t ctx in
  if not (t.locals.(c).try_acquire ctx) then false
  else begin
    t.pass_token.(c) <- 0;
    Ctx.instr ctx ~br:1 ();
    if t.demoting.(c) then begin
      (* A demoted global release is in flight: enqueueing on the global
         lock now could lose the hand-off, and a non-blocking caller
         cannot wait it out — report the lock as busy. *)
      t.locals.(c).release ctx;
      false
    end
    else if t.owned.(c) then begin
      t.global.transferred ctx;
      got_lock t ctx;
      true
    end
    else if t.global.try_acquire ctx then begin
      t.owned.(c) <- true;
      t.passes.(c) <- 0;
      got_lock t ctx;
      true
    end
    else begin
      (* Could not take the global lock: give the local one back. *)
      t.locals.(c).release ctx;
      false
    end
  end

(* Timed acquisition: a timed local acquire (whose failure leaves nothing
   held — the constituent's abandonment protocol cleans up after itself),
   then the same pass-acceptance and demote-fence steps as [acquire], then
   a timed global acquire with whatever deadline remains. A global-side
   failure gives the local lock back, exactly like [try_acquire]. Either
   constituent may return [true] past the deadline (a committed hand-off
   must be consumed); the composite then either delivers the lock or, if
   the other level has already run out of time, backs out cleanly. With a
   non-abortable constituent the corresponding level simply blocks. *)
let try_acquire_for t ctx ~deadline =
  if Ctx.now ctx >= deadline then false
  else begin
    Vhook.wait_acquire_timed ctx ~cls:t.vcls ~id:t.vid;
    let c = cluster t ctx in
    if not (t.locals.(c).try_acquire_for ctx ~deadline) then begin
      Vhook.wait_abandoned ctx;
      false
    end
    else begin
      t.pass_token.(c) <- 0;
      while t.demoting.(c) do
        Ctx.work ctx 10
      done;
      Ctx.instr ctx ~br:1 ();
      if t.owned.(c) then begin
        t.global.transferred ctx;
        got_lock t ctx;
        true
      end
      else if t.global.try_acquire_for ctx ~deadline then begin
        t.owned.(c) <- true;
        t.passes.(c) <- 0;
        got_lock t ctx;
        true
      end
      else begin
        t.locals.(c).release ctx;
        Vhook.wait_abandoned ctx;
        false
      end
    end
  end

(* Full release: the cohort session ends, the global lock changes hands.
   [owned] goes false before the global release's first timed operation, so
   a cluster-mate that acquires the local lock mid-release already sees it
   down and competes for the global lock itself. *)
let release_global_then_local t ctx c =
  t.owned.(c) <- false;
  t.passes.(c) <- 0;
  t.global.release ctx;
  t.locals.(c).release ctx

(* Thread-oblivious at the composite level too: the cluster being released
   comes from the holder bookkeeping, not from [ctx] — the constituent
   releases are holder-derived themselves, so a recoverer can run the
   whole unwind on a dead holder's behalf. *)
let release t ctx =
  let p = t.holder in
  assert (p >= 0);
  t.holder <- -1;
  let c = t.cluster_of p in
  let may_pass = t.passes.(c) < t.max_handoffs && t.locals.(c).waiters () in
  Ctx.instr ctx ~br:1 ();
  (* The released hook runs just before whichever constituent release can
     transfer the lock, so an observer sees our release before the
     successor's acquisition — and never the reverse. *)
  Vhook.released ctx ~cls:t.vcls ~id:t.vid;
  if may_pass then begin
    (* Local hand-off: keep the global lock with the cluster. *)
    t.passes.(c) <- t.passes.(c) + 1;
    t.token_ctr <- t.token_ctr + 1;
    let tok = t.token_ctr in
    t.pass_token.(c) <- tok;
    t.locals.(c).release ctx;
    (* The waiter the hint saw may have been an abandoned TryLock node the
       release just collected. If nobody accepted the pass (our own token
       still in place — any acquire or later pass overwrites it) and the
       local lock came out free, the cohort session is over: demote to a
       full release of the global lock. An acquirer that slips in after
       this check finds [owned] already false and [demoting] raised. *)
    if t.pass_token.(c) = tok && t.locals.(c).is_free () then begin
      t.pass_token.(c) <- 0;
      t.demoting.(c) <- true;
      t.owned.(c) <- false;
      t.passes.(c) <- 0;
      t.global.release ctx;
      t.demoting.(c) <- false
    end
  end
  else release_global_then_local t ctx c

(* Dead-holder recovery: the thread-oblivious release unwinds the corpse's
   session — a local pass if cluster-mates are queued (the cluster keeps
   the global lock), otherwise the full global-then-local release. The
   composite is recoverable only if both constituents are: the unwind runs
   their releases on the corpse's behalf, which needs each to be
   thread-oblivious with holder bookkeeping of its own. *)
let recover t ctx =
  let dead = t.holder in
  if
    t.recovering || dead < 0
    || Machine.proc_alive (Ctx.machine ctx) dead
    || not t.recoverable
  then false
  else begin
    t.recovering <- true;
    Fun.protect
      ~finally:(fun () -> t.recovering <- false)
      (fun () ->
        release t ctx;
        Vhook.recovered ctx ~cls:t.vcls ~dead;
        true)
  end

let create ?(vclass = "cohort") ?(max_handoffs = default_max_handoffs) ~name
    ~topo ~local ~global machine : Lock_core.t =
  if max_handoffs < 1 then
    invalid_arg "Cohort: max_handoffs must be at least 1";
  let n_clusters = topo.Lock_core.n_clusters in
  (* Each cluster's local lock is homed at its lowest processor, in
     cluster-local memory; a cohort has no use for an empty cluster. *)
  let homes = Lock_core.cluster_homes machine topo in
  Array.iteri
    (fun c h ->
      if h < 0 then
        invalid_arg (Printf.sprintf "Cohort: cluster %d has no processors" c))
    homes;
  (* Identity first, then the global lock, then the locals in cluster
     order: this fixes the instance ids and cell ids every run sees. *)
  let vid = Verify.fresh_id () in
  let vcls = Verify.lock_class vclass in
  let global = global ~vclass:(vclass ^ ".global") in
  let locals =
    Array.map (fun home -> local ~home ~vclass:(vclass ^ ".local")) homes
  in
  let t =
    {
      locals;
      global;
      owned = Array.make n_clusters false;
      passes = Array.make n_clusters 0;
      pass_token = Array.make n_clusters 0;
      token_ctr = 0;
      demoting = Array.make n_clusters false;
      max_handoffs;
      cluster_of = topo.Lock_core.cluster_of;
      recoverable =
        Array.for_all (fun (l : Lock_core.t) -> l.recoverable) locals
        && global.recoverable;
      holder = -1;
      recovering = false;
      acquisitions = 0;
      vcls;
      vid;
    }
  in
  {
    name;
    acquire = acquire t;
    release = release t;
    try_acquire = try_acquire t;
    try_acquire_for = try_acquire_for t;
    (* A non-abortable constituent turns the timed face into a blocking
       one. *)
    abortable =
      Array.for_all (fun (l : Lock_core.t) -> l.abortable) locals
      && global.abortable;
    recover = recover t;
    recoverable = t.recoverable;
    is_free = (fun () -> is_free t);
    waiters = (fun () -> waiters t);
    acquisitions = (fun () -> t.acquisitions);
    transferred = (fun ctx -> Vhook.transferred ctx ~cls:t.vcls ~id:t.vid);
  }
