(** Machine-readable benchmark export: [bench/main.exe -- --json] writes
    [BENCH_results.json], one schema-stable JSON document, so the perf
    trajectory can be tracked across PRs by tooling instead of by reading
    text tables.

    The exported experiments are the {!Experiments.all} entries that carry
    a JSON encoder, in registry order; this module only fans their cells
    out over {!Par.map}, reassembles the rows, stamps the schema header and
    writes the file. Each entry's encoder fixes its own value's shape.

    Schema (version {!schema_version}):
    {v
    { "schema_version": 9,
      "config": "hector",
      "units": { "latency": "us" },
      "experiments": {
        "fig4":        [ {algo, ours:{atomic,mem,reg,br}, paper:{...},
                          matches_paper, predicted_us} ],
        "uncontended": [ {algo, pair_us, predicted_us|null} ],
        "fig5a"/"fig5b": { hold_us,
                           series: [ {algo, points: [ {p, n, mean_us,
                             p50_us, p99_us, p999_us, max_us,
                             frac_above_2ms, acquisitions} ]} ] },
        "starvation":  {n, mean_us, p50_us, p90_us, p99_us, p999_us,
                        min_us, max_us, frac_above_2ms},
        "fig7a".."fig7d": { xlabel,
                            series: [ {algo, points: [ {x, mean_us,
                              p99_us, retries, rpcs} ]} ] },
        "constants":   {soft_fault_us, lockless_fault_us, ...},
        "numa_locks":  [ {algo, clusters, hold_us, mean_us, p99_us,
                          acquisitions, local_handoffs, remote_handoffs,
                          remote_frac, max_wait_us} ],
        "hash_scaling": [ {granularity, shards, optimistic, p, read_ratio,
                           read_mean_us, read_p99_us, update_mean_us,
                           throughput_ops_ms, optimistic_hits,
                           optimistic_fallbacks, atomics} ],
        "abort_storm": [ {algo, attempts, acquisitions, aborts, fast_fails,
                          stalls, overshoot_mean_us, overshoot_p99_us,
                          overshoot_max_us, bound_ratio, recovery_mean_us,
                          recovery_max_us, obs_aborts, obs_repairs,
                          remote_aborts, final_free} ],
        "crash_storm": [ {algo, kills, acquisitions, obs_crashes,
                          obs_recoveries, lockdep_recoveries,
                          lockdep_violations, recovery_mean_us,
                          recovery_p99_us, recovery_max_us, recovery_n,
                          clusters_hit, worst_cluster_p99_us, final_free} ],
        "rw_scaling":  [ {style, read_ratio, clusters, p, read_mean_us,
                          read_p99_us, read_p999_us, write_mean_us,
                          throughput_ops_ms, read_throughput_ops_ms, reads,
                          writes, peak_readers, read_remote, seq_aborts,
                          lockdep_violations} ],
        "slo":         [ {offered_per_ms, p, elements, shards, completed,
                          achieved_per_ms, read:{n, mean_us, p50_us, p90_us,
                          p99_us, p999_us, min_us, max_us, frac_above_2ms},
                          update:{...}, peak_backlog, optimistic_hits,
                          optimistic_fallbacks, lockdep_violations} ],
        "diurnal":     [ {lock, cold1_ops, hot_ops, cold2_ops,
                          cold_throughput_ops_ms, hot_throughput_ops_ms,
                          final_free, lockdep_violations} ]
      } }
    v}
    Version 2 added "numa_locks" (cross-cluster contention: NUMA-aware
    composites vs flat MCS, with hand-off locality and worst-case waits).
    Version 3 added "hash_scaling" (sharded hash table + seqlock
    optimistic reads: throughput and read/update latency per granularity x
    shard count x read ratio x p).
    Version 4 added "abort_storm" (timed abandonment under a planted
    cross-cluster holder stall: overshoot vs deadline, worst
    return/timeout ratio, recovery latency and per-cluster abort counts
    per abortable algorithm).
    Version 5 added "crash_storm" (fail-stop kills planted
    mid-critical-section: conservation, lockdep-legalised recovery
    transfers, kill-to-forced-release latency per algorithm and worst
    cluster).
    Version 6 added "rw_scaling" (read-mostly lookups: distributed RW lock
    vs its centralised-indicator baseline vs seqlock vs per-cluster
    replication, with reader-parallelism peaks and remote read-path
    traffic) and "p999_us" in every latency summary.
    Version 7 added "slo" (open-loop request stream over the sharded
    million-element table: offered vs achieved rate, arrival-to-completion
    p50/p99/p99.9 per offered load, peak backlog, zero lockdep
    violations); all pre-v7 experiment values unchanged.
    Version 8 added "adaptive" (the diurnal load cycle: per-phase
    throughput of the morphing lock against every static shape, with
    observer-counted promotions/demotions and the final shape gauge); all
    pre-v8 experiment values unchanged.
    Version 9 renamed "adaptive" to "diurnal" when the morphing lock was
    retired: the same six static rows, without morphs_up, morphs_down and
    final_shape; all other experiment values unchanged.
    Every number is the exact value the in-process runner returned — the
    schema test re-runs an experiment and compares the parsed file against
    it. *)

val schema_version : int

(** Run the named experiments (every exported one when [names] is empty)
    and build the document, plus every failed acceptance check
    ({!Experiments.failures}) of the rows it encodes. Unknown names, and
    experiments without an encoder, raise [Invalid_argument] before any
    cell runs. The sweep knobs ({!Experiments.knobs}) default to the
    paper's full settings; tests pass reduced ones through the same code
    path. [jobs] runs the independent cells on that many OCaml domains via
    {!Par.map}; the document is byte-identical to a [jobs = 1] run (each
    cell owns its Engine, Machine and seeded Rng, and rows are reassembled
    in the sequential order). *)
val document :
  ?procs:int list ->
  ?sizes:int list ->
  ?iters:int ->
  ?rounds:int ->
  ?jobs:int ->
  names:string list ->
  unit ->
  Json.t * string list

(** [export ~path ~names ()] writes the full-size {!document} to [path]
    with a trailing newline, reads it back, and returns the failed checks:
    the experiments' own, plus ["<path>: schema"] when the file lacks the
    schema version, the ["us"] latency unit, or a requested experiment. *)
val export : ?jobs:int -> path:string -> names:string list -> unit -> string list
