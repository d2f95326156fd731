(* Uniform lock interface.

   Experiments sweep over lock algorithms; the {!Lock_core.t} record lets a
   workload take "a lock" without knowing which algorithm backs it. The
   [algo] type enumerates every configuration the paper's figures compare,
   and [make] is the one constructor: composites build their constituents
   with recursive [make] calls. *)

open Hector

type t = Lock_core.t = {
  name : string;
  acquire : Ctx.t -> unit;
  release : Ctx.t -> unit;
  try_acquire : Ctx.t -> bool;
  try_acquire_for : Ctx.t -> deadline:int -> bool;
  abortable : bool;
  recover : Ctx.t -> bool;
  recoverable : bool;
  is_free : unit -> bool;
  waiters : unit -> bool;
  acquisitions : unit -> int;
  transferred : Ctx.t -> unit;
}

type algo =
  | Spin of { max_backoff_us : float }
  | Mcs_original
  | Mcs_h1
  | Mcs_h2
  | Mcs_cas (* H2 with compare&swap release: Section 5.2 ablation *)
  | Clh (* CLH queue lock (Craig): spins on the predecessor's node *)
  | Ticket (* fetch&increment ticket lock; CAS machines only *)
  | Anderson (* array-based queue lock; CAS machines only *)
  | Spin_then_block of { spin_us : float } (* Section 5.3, TORNADO *)
  | Null (* no-op lock: calibration probes measuring lock overhead *)
  | Cohort of { local : algo; global : algo; max_handoffs : int }
    (* lock cohorting: [local] per cluster under one [global] *)
  | Hmcs of { threshold : int } (* hierarchical MCS: two-level MCS tree *)
  | Cna of { threshold : int } (* compact NUMA-aware MCS: secondary queue *)
  | Rw of { writer : algo; policy : Rwlock.policy; centralised : bool }
    (* distributed RW lock: per-cluster reader indicators over [writer] *)

let rec algo_name = function
  | Spin { max_backoff_us } ->
    if max_backoff_us >= 1000.0 then
      Printf.sprintf "Spin(%.0fms)" (max_backoff_us /. 1000.0)
    else Printf.sprintf "Spin(%.0fus)" max_backoff_us
  | Mcs_original -> "MCS"
  | Mcs_h1 -> "H1-MCS"
  | Mcs_h2 -> "H2-MCS"
  | Mcs_cas -> "H2-MCS(cas)"
  | Clh -> "CLH"
  | Ticket -> "Ticket"
  | Anderson -> "Anderson"
  | Spin_then_block { spin_us } -> Printf.sprintf "STB(%.0fus)" spin_us
  | Null -> "none"
  | Cohort { local; global; _ } ->
    Printf.sprintf "C-%s-%s" (algo_name local) (algo_name global)
  | Hmcs _ -> "HMCS"
  | Cna _ -> "CNA"
  | Rw { writer; policy; centralised } ->
    Printf.sprintf "RW%s%s-%s"
      (match policy with
      | Rwlock.Writer_blocking -> ""
      | Rwlock.Reader_preference -> "(rp)")
      (if centralised then "(1w)" else "")
      (algo_name writer)

(* Whether [make] will demand a compare&swap machine for this algorithm —
   so workloads sweeping the whole family can upgrade the configuration
   ({!Config.with_cas}) for exactly the algorithms that need it. *)
let rec needs_cas = function
  | Mcs_cas | Ticket | Anderson -> true
  | Rw _ -> true (* reader admission is a CAS retry loop *)
  | Cohort { local; global; _ } -> needs_cas local || needs_cas global
  | Spin _ | Mcs_original | Mcs_h1 | Mcs_h2 | Clh | Spin_then_block _ | Null
  | Hmcs _ | Cna _ ->
    false

let config_for algo cfg =
  if needs_cas algo && not cfg.Config.has_cas then Config.with_cas cfg else cfg

(* A lock that does nothing: lets calibration probes measure a kernel path
   with its locking subtracted. *)
let null =
  {
    name = "none";
    acquire = ignore;
    release = ignore;
    try_acquire = (fun _ -> true);
    try_acquire_for = (fun _ ~deadline:_ -> true);
    abortable = true;
    recover = (fun _ -> false);
    recoverable = false;
    is_free = (fun () -> true);
    waiters = (fun () -> false);
    acquisitions = (fun () -> 0);
    transferred = ignore;
  }

let all_paper_algos =
  [ Mcs_original; Mcs_h1; Mcs_h2; Spin { max_backoff_us = 35.0 };
    Spin { max_backoff_us = 2000.0 } ]

(* H1 constituents, not H2: H2's successor-check-free release opens a
   fetch&store repair window on every hand-off, and stacked under the
   cohort's release path that window resonates with re-enqueue timing and
   starves the local queue behind a repeating usurper (see {!Cohort}). *)
let c_mcs_mcs =
  Cohort
    {
      local = Mcs_h1;
      global = Mcs_h1;
      max_handoffs = Cohort.default_max_handoffs;
    }

let hmcs = Hmcs { threshold = Hmcs.default_threshold }
let cna = Cna { threshold = Cna.default_threshold }
let all_numa_algos = [ c_mcs_mcs; hmcs; cna ]

let transferred cls id ctx = Vhook.transferred ctx ~cls ~id

(* Acquire and report success: the TryLock and timed faces of algorithms
   that cannot give up on a wait. *)
let blocking acquire ctx =
  acquire ctx;
  true

let blocking_for acquire ctx ~deadline:_ = blocking acquire ctx

(* What a Cohort may be built from: base algorithms only — nesting a
   composite (or [Null] / STB) inside a cohort is rejected. *)
let check_cohort_constituent algo =
  match algo with
  | Spin _ | Mcs_original | Mcs_h1 | Mcs_h2 | Mcs_cas | Clh | Ticket
  | Anderson ->
    ()
  | Spin_then_block _ | Null | Cohort _ | Hmcs _ | Cna _ | Rw _ ->
    invalid_arg
      (Printf.sprintf
         "Lock.make: %s cannot be a cohort constituent (base algorithms only)"
         (algo_name algo))

(* What an RW lock may serialise its writers with: any base algorithm, or
   one of the NUMA composites — so RW-cohort and RW-CNA fall out of the
   existing combinators. *)
let check_writer algo =
  match algo with
  | Null | Spin_then_block _ | Rw _ ->
    invalid_arg
      (Printf.sprintf "Lock.make: %s cannot be an RW writer constituent"
         (algo_name algo))
  | Spin _ | Mcs_original | Mcs_h1 | Mcs_h2 | Mcs_cas | Clh | Ticket | Anderson
  | Cohort _ | Hmcs _ | Cna _ ->
    ()

let rec make machine ?(home = 0) ?vclass ?topo algo =
  let cfg = Machine.config machine in
  let topo =
    match topo with
    | Some t -> t
    | None -> Lock_core.topo_of_machine machine
  in
  let name = algo_name algo in
  match algo with
  | Null -> null
  | Spin { max_backoff_us } ->
    let backoff = Backoff.of_us cfg ~max_us:max_backoff_us () in
    let l = Spin_lock.create machine ~home ?vclass backoff in
    {
      name;
      acquire = Spin_lock.acquire l;
      release = Spin_lock.release l;
      try_acquire = Spin_lock.try_acquire l;
      try_acquire_for = Spin_lock.try_acquire_for l;
      abortable = true;
      recover = Spin_lock.recover l;
      recoverable = true;
      is_free = (fun () -> not (Spin_lock.is_held l));
      (* A test&set lock cannot see its backers-off, so a cohort over a
         spin local never passes locally. *)
      waiters = (fun () -> false);
      acquisitions = (fun () -> Spin_lock.acquisitions l);
      transferred = transferred (Spin_lock.vclass l) (Spin_lock.vid l);
    }
  | Mcs_original | Mcs_h1 | Mcs_h2 | Mcs_cas ->
    let variant =
      match algo with
      | Mcs_original -> Mcs.Original
      | Mcs_h1 -> Mcs.H1
      | _ -> Mcs.H2
    in
    let use_cas_release = algo = Mcs_cas in
    if use_cas_release && not cfg.Config.has_cas then
      invalid_arg "Lock.make: Mcs_cas needs a machine with compare&swap";
    let l = Mcs.create ~variant ~home ~use_cas_release ?vclass machine in
    {
      name;
      acquire = Mcs.acquire l;
      release = Mcs.release l;
      try_acquire = Mcs.try_acquire_v2 l;
      try_acquire_for = Mcs.try_acquire_for l;
      abortable = true;
      recover = Mcs.recover l;
      recoverable = true;
      is_free = (fun () -> Mcs.is_free l);
      waiters = (fun () -> Mcs.waiters l);
      acquisitions = (fun () -> Mcs.acquisitions l);
      transferred = transferred (Mcs.vclass l) (Mcs.vid l);
    }
  | Clh ->
    let l = Clh.create ~home ?vclass machine in
    {
      name;
      acquire = Clh.acquire l;
      release = Clh.release l;
      (* No cheap TryLock: the queue admits no removal. *)
      try_acquire = blocking (Clh.acquire l);
      try_acquire_for = Clh.try_acquire_for l;
      abortable = true;
      recover = Clh.recover l;
      recoverable = true;
      is_free = (fun () -> Clh.is_free l);
      waiters = (fun () -> Clh.waiters l);
      acquisitions = (fun () -> Clh.acquisitions l);
      transferred = transferred (Clh.vclass l) (Clh.vid l);
    }
  | Ticket ->
    (* A drawn ticket cannot be handed back (a skipped number would stall
       every later waiter), so both non-blocking faces block. Recoverable
       all the same: waiters retire a dead holder's ticket in-spin. *)
    let l = Ticket_lock.create ~home ?vclass machine in
    {
      name;
      acquire = Ticket_lock.acquire l;
      release = Ticket_lock.release l;
      try_acquire = blocking (Ticket_lock.acquire l);
      try_acquire_for = blocking_for (Ticket_lock.acquire l);
      abortable = false;
      recover = Ticket_lock.recover l;
      recoverable = true;
      is_free = (fun () -> Ticket_lock.is_free l);
      waiters = (fun () -> Ticket_lock.waiters l);
      acquisitions = (fun () -> Ticket_lock.acquisitions l);
      transferred = transferred (Ticket_lock.vclass l) (Ticket_lock.vid l);
    }
  | Anderson ->
    let l = Anderson_lock.create ~home ?vclass machine in
    {
      name;
      acquire = Anderson_lock.acquire l;
      release = Anderson_lock.release l;
      (* Slots cannot be handed back; only timed waiters, which announce
         themselves, may forfeit. *)
      try_acquire = blocking (Anderson_lock.acquire l);
      try_acquire_for = Anderson_lock.try_acquire_for l;
      abortable = true;
      recover = Anderson_lock.recover l;
      recoverable = true;
      is_free = (fun () -> Anderson_lock.is_free l);
      waiters = (fun () -> Anderson_lock.waiters l);
      acquisitions = (fun () -> Anderson_lock.acquisitions l);
      transferred = transferred (Anderson_lock.vclass l) (Anderson_lock.vid l);
    }
  | Spin_then_block { spin_us } ->
    (* Blocking hands the processor to the scheduler: there is no waiter
       state to retract, and wakeup is the scheduler's promise — the timed
       face blocks, and blocked waiters are beyond the lock's reach, so
       there is no recovery either. *)
    let l = Stb_lock.create ~home ~spin_us ?vclass machine in
    {
      name;
      acquire = Stb_lock.acquire l;
      release = Stb_lock.release l;
      try_acquire = Stb_lock.try_acquire l;
      try_acquire_for = blocking_for (Stb_lock.acquire l);
      abortable = false;
      recover = (fun _ -> false);
      recoverable = false;
      is_free = (fun () -> not (Stb_lock.is_held l));
      waiters = (fun () -> Stb_lock.waiters l);
      acquisitions = (fun () -> Stb_lock.acquisitions l);
      transferred = transferred (Stb_lock.vclass l) (Stb_lock.vid l);
    }
  | Hmcs { threshold } ->
    let l = Hmcs.create ~home ~threshold ?vclass ~topo machine in
    {
      name;
      acquire = Hmcs.acquire l;
      release = Hmcs.release l;
      (* The timed face is the true abortable entry point. *)
      try_acquire = blocking (Hmcs.acquire l);
      try_acquire_for = Hmcs.try_acquire_for l;
      abortable = true;
      recover = Hmcs.recover l;
      recoverable = true;
      is_free = (fun () -> Hmcs.is_free l);
      waiters = (fun () -> Hmcs.waiters l);
      acquisitions = (fun () -> Hmcs.acquisitions l);
      transferred = transferred (Hmcs.vclass l) (Hmcs.vid l);
    }
  | Cna { threshold } ->
    let l = Cna.create ~home ~threshold ?vclass ~topo machine in
    {
      name;
      acquire = Cna.acquire l;
      release = Cna.release l;
      try_acquire = blocking (Cna.acquire l);
      try_acquire_for = Cna.try_acquire_for l;
      abortable = true;
      recover = Cna.recover l;
      recoverable = true;
      is_free = (fun () -> Cna.is_free l);
      waiters = (fun () -> Cna.waiters l);
      acquisitions = (fun () -> Cna.acquisitions l);
      transferred = transferred (Cna.vclass l) (Cna.vid l);
    }
  | Cohort { local; global; max_handoffs } ->
    check_cohort_constituent local;
    check_cohort_constituent global;
    Cohort.create ?vclass ~max_handoffs ~name ~topo
      ~local:(fun ~home ~vclass -> make machine ~home ~vclass local)
      ~global:(fun ~vclass -> make machine ~home ~vclass global)
      machine
  | Rw { writer; policy; centralised } ->
    (* The uniform record is the *writer* face; workloads wanting the
       reader side build the lock with [make_rw] instead. *)
    Rwlock.lock
      (make_rw machine ~home ?vclass ~topo ~policy ~centralised writer)

(* The RW composite itself, with both faces. *)
and make_rw machine ?home ?(vclass = "rwlock") ?topo ~policy ~centralised
    writer_algo =
  check_writer writer_algo;
  let topo =
    match topo with Some t -> t | None -> Lock_core.topo_of_machine machine
  in
  let writer =
    make machine
      ~home:(Option.value home ~default:0)
      ~vclass:(vclass ^ ".writer") ~topo writer_algo
  in
  Rwlock.create ?home ~vclass ~policy ~centralised
    ~name:(algo_name (Rw { writer = writer_algo; policy; centralised }))
    ~topo ~writer machine

(* Crash-tolerant acquire: poll in bounded slices so a dead holder is
   noticed and repaired instead of being waited on forever. Each slice is a
   timed acquisition of [check_period] cycles; on expiry, [recover] runs if
   the holder fail-stopped. The backoff pause between slices is mandatory,
   not a politeness: an abortable algorithm whose abandoned node is still
   queued fails its next timed attempt in zero virtual time (fail-fast on
   the marked node), and without the pause the retry loop would spin the
   host without ever advancing the simulation.

   The pause must also be *randomised*, and allowed to grow past the check
   period. Mass timeout is pathological for abandon-in-place queue locks: a
   release hand-off walking the queue collects each abandoned node, which
   frees that node's owner to re-enqueue and time out again — trail growth
   exactly matches collection, and if every waiter runs the same
   deterministic slice/pause cadence the walker arrives at each position
   just after its owner gave up, forever (observed as a no-crash livelock
   at p = 16). Jitter breaks the phase lock, and the growing cap thins the
   abandonment rate until the walker catches a node whose owner is still
   spinning. A non-abortable but recoverable algorithm (Ticket) blocks and
   recovers in-spin; a non-recoverable one just blocks — callers that plan
   to inject crashes should pick from the recoverable family. *)
let acquire_recoverable ?(check_period = 2_000) t ctx =
  if not (t.abortable && t.recoverable) then t.acquire ctx
  else begin
    let rng = Ctx.rng ctx in
    let rec attempt pause =
      if t.try_acquire_for ctx ~deadline:(Ctx.now ctx + check_period) then ()
      else begin
        ignore (t.recover ctx);
        Ctx.interruptible_pause ctx
          (1 + (pause / 2) + Eventsim.Rng.int rng pause);
        attempt (min (2 * pause) (8 * check_period))
      end
    in
    attempt 64
  end

(* Acquire with the processor's soft mask set, so inter-processor interrupts
   that could deadlock with this lock are deferred until release (Section
   3.2's adopted solution). *)
let with_lock_masked t ctx f =
  Ctx.set_soft_mask ctx;
  t.acquire ctx;
  Fun.protect
    ~finally:(fun () ->
      t.release ctx;
      Ctx.clear_soft_mask ctx)
    f

let with_lock t ctx f =
  t.acquire ctx;
  Fun.protect ~finally:(fun () -> t.release ctx) f

(* Space cost of one lock instance, in words, for [n_procs] processors and
   [n_clusters] clusters. MCS queue nodes are per-processor but *shared
   across all locks* on real systems; here we charge the per-lock view the
   paper uses when comparing strategies ("an additional two words per
   actively spinning processor" for distributed locks, one word for a spin
   lock, a P-entry array for Anderson). The NUMA composites follow the same
   convention (see lock.mli for the full accounting). *)
let rec space_words ?(n_clusters = 1) ~n_procs = function
  | Spin _ -> 1
  | Ticket -> 2
  | Anderson -> 1 + n_procs
  | Clh -> 1 + n_procs + 1 (* tail + a node per processor + the dummy *)
  | Mcs_original | Mcs_h1 | Mcs_h2 | Mcs_cas -> 1 + (2 * n_procs)
  | Spin_then_block _ -> 1 (* plus the scheduler's wait list, not memory *)
  | Null -> 0
  | Cohort { local; global; _ } ->
    (* One [local] instance per cluster, one [global], plus the per-cluster
       [owned] flag and pass counter. *)
    space_words ~n_clusters ~n_procs global
    + (n_clusters * space_words ~n_clusters ~n_procs local)
    + (2 * n_clusters)
  | Hmcs _ ->
    (* Root tail; root node (next + locked) and local tail per cluster;
       queue node (next + locked) per processor. *)
    1 + (3 * n_clusters) + (2 * n_procs)
  | Cna _ ->
    (* Tail + secondary head/tail, and a 3-word node per processor (next,
       locked, cluster). Independent of the cluster count — CNA's "compact"
       claim. *)
    3 + (3 * n_procs)
  | Rw { writer; centralised; _ } ->
    (* The writer constituent plus one reader-indicator word per cluster
       (count and gate bit share the word), or a single word for the
       centralised baseline. *)
    space_words ~n_clusters ~n_procs writer
    + (if centralised then 1 else n_clusters)
