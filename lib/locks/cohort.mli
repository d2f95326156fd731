(** Lock cohorting (Dice, Marathe & Shavit): compose any per-cluster local
    lock with any global lock into a NUMA-aware lock. A releaser that sees
    same-cluster waiters hands over only the local lock, so the global lock
    — and the protected data — migrate across clusters once per cohort
    session instead of once per critical section. [max_handoffs] bounds
    consecutive local hand-offs so remote clusters are not starved. *)

open Hector

val default_max_handoffs : int

(** [create ~name ~topo ~local ~global machine] builds the composite:
    [global ~vclass] builds the top-level lock, then [local ~home ~vclass]
    one constituent per cluster, homed at the cluster's lowest processor.
    The result is abortable only if every constituent is (a
    non-abortable level blocks in the timed face), and recoverable only
    if every constituent is (the recovery unwind runs their releases on
    the dead holder's behalf). Raises [Invalid_argument] if
    [max_handoffs < 1], [topo] maps a processor out of range, or some
    cluster has no processors. *)
val create :
  ?vclass:string ->
  ?max_handoffs:int ->
  name:string ->
  topo:Lock_core.topo ->
  local:(home:int -> vclass:string -> Lock_core.t) ->
  global:(vclass:string -> Lock_core.t) ->
  Machine.t ->
  Lock_core.t
