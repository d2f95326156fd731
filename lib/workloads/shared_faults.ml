(* Shared page-fault test (Figure 6b / Figures 7b and 7d).

   [p] processes repeatedly 1) write to the same small set of shared pages,
   2) barrier, 3) unmap the pages. Every fault targets the same physical
   pages, so contention is implicit in the application's demands: processes
   contend for the descriptors' reserve bits within a cluster, and clusters
   contend for write ownership across the machine (descriptor replication,
   invalidation broadcasts — the traffic that makes very small clusters
   expensive in Figure 7d). *)

open Eventsim
open Hector
open Locks
open Hkernel

type config = {
  p : int;
  n_pages : int;
  rounds : int;
  cluster_size : int;
  lock_algo : Lock.algo;
  seed : int;
}

let default_config =
  {
    p = 16;
    n_pages = 4;
    rounds = 30;
    cluster_size = 16;
    lock_algo = Lock.Mcs_h2;
    seed = 13;
  }

type result = {
  summary : Measure.summary;
  faults : int;
  retries : int;
  rpcs : int;
  replications : int;
  invalidations : int;
  reserve_conflicts : int;
}

let vpage_of j = 500_000 + j

let run ?(cfg = Config.hector) ?(config = default_config) () =
  let cfg = Lock.config_for config.lock_algo cfg in
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let kernel =
    Kernel.create machine ~cluster_size:config.cluster_size
      ~lock_algo:config.lock_algo ~seed:config.seed
  in
  for j = 0 to config.n_pages - 1 do
    Kernel.populate_page kernel ~vpage:(vpage_of j) ~master_cluster:0
      ~frame:(vpage_of j)
  done;
  let active = List.init config.p (fun p -> p) in
  Kernel.spawn_idle_except kernel ~active;
  let stat = Stat.create "shared" in
  let barrier = Barrier.create ~parties:config.p in
  List.iter
    (fun proc ->
      let ctx = Kernel.ctx kernel proc in
      Process.spawn eng (fun () ->
          for _round = 1 to config.rounds do
            for j = 0 to config.n_pages - 1 do
              let vpage = vpage_of j in
              let t0 = Machine.now machine in
              Memmgr.fault kernel ctx ~vpage ~write:true;
              Stat.add stat (Machine.now machine - t0)
            done;
            Barrier.wait barrier ctx;
            for j = 0 to config.n_pages - 1 do
              Memmgr.unmap kernel ctx ~vpage:(vpage_of j)
            done;
            Barrier.wait barrier ctx
          done;
          (* Finished workers keep serving incoming RPCs. *)
          Ctx.idle_loop ctx))
    active;
  Engine.run eng;
  let reserve_conflicts =
    Array.fold_left
      (fun acc c -> acc + Khash.reserve_conflicts c.Kernel.page_hash)
      0
      (Array.init
         (Clustering.n_clusters (Kernel.clustering kernel))
         (fun i -> Kernel.cluster kernel i))
  in
  {
    summary =
      Measure.of_stat cfg ~label:(Lock.algo_name config.lock_algo) stat;
    faults = Kernel.faults kernel;
    retries = Kernel.retries kernel;
    rpcs = Rpc.calls (Kernel.rpc kernel);
    replications = Kernel.replications kernel;
    invalidations = Kernel.invalidations kernel;
    reserve_conflicts;
  }
