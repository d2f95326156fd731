(** Contention observability: per-lock-class profiles and a bounded event
    trace, fed by the same hook sites as the {!Verify} checker.

    The discipline matches [lib/verify]: nothing here touches the engine,
    draws random numbers or charges simulated cycles. Uninstalled, every
    hook site is a single branch on [Machine.obs]; installed, the hooks do
    pure host-side bookkeeping, so an observed run is bit-identical in
    simulated time to a plain one.

    Lock classes are {!Verify}'s interned classes — the profile speaks the
    same vocabulary as the checker and the [?vclass] arguments the locks
    already take. Proc-to-cluster attribution is a caller-supplied mapping
    (stations for a bare machine, {!Hkernel.Clustering} for clustered
    workloads). *)

type t

(** [create ~n_procs ()] profiles only. [trace] > 0 additionally keeps the
    last [trace] events in a ring (older events are dropped, counted in
    {!trace_dropped}). [cluster_of]/[n_clusters] default to one cluster. *)
val create :
  ?trace:int ->
  ?cluster_of:(int -> int) ->
  ?n_clusters:int ->
  n_procs:int ->
  unit ->
  t

(** {2 Hook sites}

    Mirrors of the {!Verify} reporting entry points; see [Vhook],
    [Reserve], [Rpc] and [Khash] for the call sites. All tolerate events
    with no matching start (an observer installed mid-run). *)

val lock_wait :
  t -> proc:int -> cls:Verify.lock_class -> id:int -> now:int -> unit

val lock_acquired :
  t -> proc:int -> cls:Verify.lock_class -> id:int -> now:int -> unit

val lock_try_acquired :
  t -> proc:int -> cls:Verify.lock_class -> id:int -> now:int -> unit

(** An abandoned wait bumps [aborts] and [contended] without an
    acquisition; the bumps are sequenced (abort first) and hooks are
    host-atomic, so a mid-run sampler sees rows satisfying
    [contended <= acqs + aborts]. *)
val lock_wait_abandoned : t -> proc:int -> now:int -> unit

(** A hand-off reclaimed a node some timed waiter abandoned; attributed to
    the repairing processor's cluster under [cls]. *)
val lock_abandon_repaired :
  t -> proc:int -> cls:Verify.lock_class -> now:int -> unit

val lock_released :
  t -> proc:int -> cls:Verify.lock_class -> id:int -> now:int -> unit

(** An optimistic read sampled the lock and aborted (seqlock validation
    failure or writer-in-progress). Charged to [proc]'s cluster as a
    contended non-acquisition ([contended] and [aborts] both bump); no
    frame or holder state moves since nothing was ever held. *)
val lock_optimistic_abort :
  t -> proc:int -> cls:Verify.lock_class -> now:int -> unit

(** {2 Reader concurrency}

    A gauge of concurrent shared (reader-side) holders per lock class,
    fed by [Vhook.acquired_shared]/[released_shared]. Kept beside the
    profile like the crash buckets: {!cells} is schema-stable and a
    high-water mark is a gauge, not a counter. *)

(** A shared acquisition of class [cls] completed on [proc]. *)
val rw_read_enter : t -> proc:int -> cls:Verify.lock_class -> unit

(** A shared hold of class [cls] ended on [proc] (possibly swept off a
    corpse by a recoverer — pass the dead processor as [proc]). *)
val rw_read_exit : t -> proc:int -> cls:Verify.lock_class -> unit

(** Peak concurrent shared holders observed for [cls]; 0 if never held.
    Readers > 1 is the reader-parallelism evidence no exclusive
    [Lock.algo] can produce. *)
val rw_read_peak : t -> cls:Verify.lock_class -> int

val reserve_set :
  t -> proc:int -> cls:Verify.lock_class -> word:int -> now:int -> unit

val reserve_clear : t -> proc:int -> word:int -> now:int -> unit

val reserve_read_set :
  t -> proc:int -> cls:Verify.lock_class -> word:int -> now:int -> unit

val reserve_read_clear : t -> proc:int -> word:int -> now:int -> unit

val reserve_wait :
  t -> proc:int -> cls:Verify.lock_class -> word:int -> now:int -> unit

val reserve_wait_done : t -> proc:int -> now:int -> unit

val rpc_issue : t -> proc:int -> target:int -> now:int -> unit
val rpc_retry : t -> proc:int -> now:int -> unit
val rpc_reply : t -> proc:int -> now:int -> unit

(** {2 Crash and recovery}

    Kept beside the profile, not inside {!cells}: the profile schema is
    stable across versions, and crash evidence wants per-event latency
    samples. *)

(** Processor [proc] fail-stopped (called by [Machine.kill_proc]). *)
val proc_crashed : t -> proc:int -> now:int -> unit

(** Recoverer [proc] released lock class [cls] on dead processor [dead]'s
    behalf, [latency] cycles after the kill. Crash-bucket attribution goes
    to [dead]'s cluster. *)
val lock_recovered :
  t ->
  proc:int ->
  cls:Verify.lock_class ->
  dead:int ->
  latency:int ->
  now:int ->
  unit

type crash_row = {
  cr_cluster : int;
  cr_crashes : int;
  cr_recoveries : int;
  cr_latencies : int list;  (** recovery latencies in cycles, chronological *)
}

(** One row per cluster with any crash/recovery activity. *)
val crash_rows : t -> crash_row list

val crashes_observed : t -> int
val recoveries_observed : t -> int

(** {2 Contention profile} *)

type cells = {
  acqs : int;  (** successful acquisitions (incl. try / reserve sets) *)
  contended : int;
      (** acquisitions that found the lock held / completed spin waits *)
  wait_cycles : int;  (** cycles from wait start to acquisition (or abandon) *)
  max_wait_cycles : int;  (** worst single wait (lock, spin or RPC) *)
  hold_cycles : int;  (** cycles from acquisition to release *)
  handoffs : int;  (** releases made with at least one recorded waiter *)
  handoffs_local : int;
      (** contended acquisitions whose previous releaser was in the
          receiving processor's cluster *)
  handoffs_remote : int;
      (** contended acquisitions that pulled the lock across a cluster
          boundary — the transfers a NUMA-aware lock minimises *)
  aborts : int;  (** timed acquisitions that expired and gave up *)
  abandon_repairs : int;
      (** abandoned queue nodes reclaimed by a later hand-off *)
}

type row = {
  row_class : string;
  total : cells;
  by_cluster : (int * cells) list;
      (** attribution by the waiting/holding processor's cluster; clusters
          with no activity for the class are omitted *)
}

(** One row per lock class with any activity, heaviest wait first. *)
val profile_rows : t -> row list

(** {2 Event trace} *)

type kind =
  | Lock_acquired  (** span: wait start to acquisition *)
  | Lock_released  (** span: acquisition to release *)
  | Lock_try  (** instant: non-blocking acquisition *)
  | Lock_abandoned  (** span: wait start to timeout *)
  | Lock_recovered  (** span: kill to recovery release (dur = latency) *)
  | Reserve_set  (** instant *)
  | Reserve_cleared  (** span: set to clear *)
  | Reserve_spin  (** span: spin-wait on a reserve bit *)
  | Rpc_issue  (** instant *)
  | Rpc_retry  (** instant: [Would_deadlock] resend/backoff *)
  | Rpc_reply  (** span: issue to reply *)
  | Proc_crash  (** instant: a processor fail-stopped *)

type event = {
  kind : kind;
  proc : int;
  cls : Verify.lock_class;
  time : int;  (** cycle at which the span ended / the instant occurred *)
  dur : int;  (** span length in cycles; 0 for instants *)
}

(** Oldest retained first. *)
val trace : t -> event list

val trace_recorded : t -> int

(** Events evicted from the ring. *)
val trace_dropped : t -> int

(** Chrome trace-event document (the JSON object format Perfetto and
    [chrome://tracing] load): clusters as processes, processors as
    threads, spans as ["X"] complete events, instants as ["i"].
    [us_per_cycle] converts simulated cycles to trace microseconds. *)
val trace_json : t -> us_per_cycle:float -> Json.t
