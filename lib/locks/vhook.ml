(* One-line verification/observation hook sites for the lock
   implementations: each is a single branch per installed subsystem when
   both are off, and pure host-side bookkeeping (no simulated cycles) when
   either is on. *)

open Hector

let on ctx f =
  match Machine.verify (Ctx.machine ctx) with None -> () | Some v -> f v

let obs ctx f =
  match Machine.obs (Ctx.machine ctx) with None -> () | Some o -> f o

let wait_acquire ctx ~cls ~id =
  on ctx (fun v ->
      Verify.wait_acquire v ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      Obs.lock_wait o ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx))

let acquired ctx ~cls ~id =
  on ctx (fun v ->
      Verify.acquired v ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      Obs.lock_acquired o ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx))

let try_acquired ctx ~cls ~id =
  on ctx (fun v ->
      Verify.try_acquired v ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      Obs.lock_try_acquired o ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx))

let wait_acquire_timed ctx ~cls ~id =
  on ctx (fun v ->
      Verify.wait_acquire_timed v ~proc:(Ctx.proc ctx) ~cls ~id
        ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      Obs.lock_wait o ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx))

let abandon_repaired ctx ~cls =
  obs ctx (fun o ->
      Obs.lock_abandon_repaired o ~proc:(Ctx.proc ctx) ~cls ~now:(Ctx.now ctx))

let wait_abandoned ctx =
  on ctx (fun v ->
      Verify.wait_abandoned v ~proc:(Ctx.proc ctx) ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      Obs.lock_wait_abandoned o ~proc:(Ctx.proc ctx) ~now:(Ctx.now ctx))

let recovered ctx ~cls ~dead =
  obs ctx (fun o ->
      let now = Ctx.now ctx in
      let killed = Machine.killed_at (Ctx.machine ctx) dead in
      let latency = if killed >= 0 && killed <= now then now - killed else 0 in
      Obs.lock_recovered o ~proc:(Ctx.proc ctx) ~cls ~dead ~latency ~now)

let transferred ctx ~cls ~id =
  on ctx (fun v ->
      Verify.transferred v ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx))

let released ctx ~cls ~id =
  on ctx (fun v ->
      Verify.released v ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      Obs.lock_released o ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx))

(* An optimistic read (seqlock sample) aborted: no lock was ever held, so
   only the profile hears about it — there is nothing for lockdep to
   balance. *)
let optimistic_abort ctx ~cls =
  obs ctx (fun o ->
      Obs.lock_optimistic_abort o ~proc:(Ctx.proc ctx) ~cls ~now:(Ctx.now ctx))

(* Shared (reader-side) faces of an RW lock. Same lockdep entry points as
   the exclusive ones — the checker's per-processor held lists make
   concurrent shared holders legal without special casing — plus the
   observer's reader-concurrency gauge. *)
let acquired_shared ctx ~cls ~id =
  on ctx (fun v ->
      Verify.acquired v ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      let proc = Ctx.proc ctx in
      let now = Ctx.now ctx in
      Obs.lock_acquired o ~proc ~cls ~id ~now;
      Obs.rw_read_enter o ~proc ~cls)

let released_shared ctx ~cls ~id =
  on ctx (fun v ->
      Verify.released v ~proc:(Ctx.proc ctx) ~cls ~id ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      let proc = Ctx.proc ctx in
      let now = Ctx.now ctx in
      Obs.lock_released o ~proc ~cls ~id ~now;
      Obs.rw_read_exit o ~proc ~cls)

(* A recoverer sweeps a shared hold off fail-stopped processor [dead].
   [Verify.released] cannot legalise this one — its dead-holder path keys
   on the single registered holder, and a shared lock has many — so the
   corpse is named explicitly. *)
let released_dead ctx ~cls ~id ~dead =
  on ctx (fun v ->
      Verify.released_dead v ~proc:(Ctx.proc ctx) ~dead ~cls ~id
        ~now:(Ctx.now ctx));
  obs ctx (fun o ->
      Obs.lock_released o ~proc:dead ~cls ~id ~now:(Ctx.now ctx);
      Obs.rw_read_exit o ~proc:dead ~cls)
