(* The one lock interface (see lock_core.mli): topologies, and the record
   every algorithm is reached through. *)

open Hector

type topo = { n_clusters : int; cluster_of : int -> int }

let topo ~n_clusters ~cluster_of =
  if n_clusters <= 0 then
    invalid_arg "Lock_core.topo: n_clusters must be positive";
  { n_clusters; cluster_of }

(* Hardware stations as the default topology: a machine-level analogue of
   the kernel's Clustering when no explicit clustering is in play. *)
let topo_of_machine machine =
  let cfg = Machine.config machine in
  { n_clusters = cfg.Config.stations; cluster_of = Config.station_of_proc cfg }

(* The lowest processor of each cluster (-1 if empty), scanning downwards
   so the last write per cluster is its lowest member. *)
let cluster_homes machine topo =
  let homes = Array.make topo.n_clusters (-1) in
  for p = Machine.n_procs machine - 1 downto 0 do
    let c = topo.cluster_of p in
    if c < 0 || c >= topo.n_clusters then
      invalid_arg
        (Printf.sprintf "Lock_core.cluster_homes: processor %d maps to cluster \
                         %d, outside [0, %d)"
           p c topo.n_clusters);
    homes.(c) <- p
  done;
  homes

type t = {
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
