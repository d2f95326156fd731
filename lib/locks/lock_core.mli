(** The one lock interface: a record of closures over a lock instance.

    Every algorithm in [lib/locks] is reached through a {!t}, built by
    [Lock.make]; the composites ({!Cohort}, {!Rwlock}) take
    their constituents as {!t} values too, so any algorithm can sit inside
    any composite that accepts it. Capabilities ([abortable],
    [recoverable]) are per instance: a cohort over a ticket constituent is
    not abortable, the same combinator over two MCS locks is. *)

open Hector

(** Cluster topology a NUMA-aware lock is constructed against: which of
    [n_clusters] clusters each processor belongs to. [cluster_of] must be
    total over the machine's processors and return values in
    [0, n_clusters); {!cluster_homes} checks the range. *)
type topo = { n_clusters : int; cluster_of : int -> int }

(** The machine's own hardware stations as a topology — the default when a
    lock is built without an explicit [Clustering]. *)
val topo_of_machine : Machine.t -> topo

(** A topology from explicit values. Raises [Invalid_argument] if
    [n_clusters <= 0]; the range of [cluster_of] is checked where a lock
    is built against it ({!cluster_homes}). *)
val topo : n_clusters:int -> cluster_of:(int -> int) -> topo

(** [cluster_homes machine topo] is the lowest processor of each cluster,
    [-1] for a cluster with no processors — where per-cluster lock state
    is homed. Raises [Invalid_argument] if [cluster_of] maps some
    processor outside [0, n_clusters). What an empty cluster means is the
    caller's policy. *)
val cluster_homes : Machine.t -> topo -> int array

type t = {
  name : string;
  acquire : Ctx.t -> unit;
  release : Ctx.t -> unit;
  try_acquire : Ctx.t -> bool;
      (** Non-blocking where the algorithm supports one; algorithms
          without a cheap TryLock (CLH, Ticket, Anderson, HMCS, CNA)
          acquire and return [true]. *)
  try_acquire_for : Ctx.t -> deadline:int -> bool;
      (** Timed acquisition against an absolute deadline (in
          [Machine.now] units). On an abortable lock ([abortable]),
          returns [false] — holding nothing, with all queue state
          eventually repaired — once the deadline expires; may return
          [true] past the deadline when a hand-off committed first (a
          committed grant must be consumed — nobody else ever will). An
          already-expired deadline ([deadline <= now]) fails without
          touching the lock. On a non-abortable lock this simply blocks,
          acquires, and returns [true]. *)
  abortable : bool;  (** [try_acquire_for] can actually give up *)
  recover : Ctx.t -> bool;
      (** Dead-holder recovery: if the processor holding the lock has
          fail-stopped ([Machine.proc_alive] is the detector), force the
          release it will never perform and return [true]; [false] when
          the lock is free, the holder is alive, the lock is not
          recoverable, or another recovery is in flight. The caller does
          not hold the lock afterwards — it re-contends. *)
  recoverable : bool;  (** [recover] can actually repair a dead holder *)
  is_free : unit -> bool;  (** untimed, for assertions *)
  waiters : unit -> bool;
      (** Untimed hint: is some processor queued or spinning behind the
          current holder? Cohort releases consult it to decide whether a
          cluster-local hand-off is possible; a conservative [false] only
          costs locality, never correctness. *)
  acquisitions : unit -> int;
      (** Completed acquisitions through [acquire], a successful
          [try_acquire] and a successful [try_acquire_for]. *)
  transferred : Ctx.t -> unit;
      (** Report to the installed {!Verify} checker (if any), under this
          instance's class and id, that the calling processor inherited
          the still-held lock — see {!Verify.transferred}. Fired by
          {!Cohort} when a pass recipient inherits the global
          constituent. Host-side only. *)
}
