(* The experiment registry: one entry per table/figure of the paper's
   evaluation, plus the ablations and extensions in DESIGN.md. An entry owns
   everything about its experiment — the sweep, split along its outermost
   axis into independent cells; the text report with the paper's claim; the
   JSON encoding; and the acceptance checks — so the benchmark harness, the
   CLI, the JSON export and the tests all read the same list. *)

open Hector
open Locks
open Workloads

type knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

let paper = { procs = None; sizes = None; iters = None; rounds = None }

type ('c, 'r) spec = {
  name : string;
  title : string;
  claim : string;
  cells : 'c list;
  run : knobs -> 'c -> 'r list;
  print : Format.formatter -> 'r list -> unit;
  json : ('r list -> Json.t) option;
  checks : (string * ('r list -> bool)) list;
}

type t = E : ('c, 'r) spec -> t

let paper_procs = [ 1; 2; 4; 8; 12; 16 ]
let paper_cluster_sizes = [ 1; 2; 4; 8; 16 ]

(* The kernel-lock algorithms compared in Figure 7: the paper plots
   "Distributed Locks" vs exponential-backoff spin locks; we show both
   modified-MCS variants. *)
let fig7_algos =
  [ Lock.Mcs_h1; Lock.Mcs_h2; Lock.Spin { max_backoff_us = 35.0 } ]

(* -- shared helpers --------------------------------------------------------- *)

let every ok rows = List.for_all ok rows
let list f rows = Json.List (List.map f rows)

(* Single-cell experiments produce exactly one row. *)
let only f = function
  | [ r ] -> f r
  | rows ->
    invalid_arg
      (Printf.sprintf "Experiments: expected one row, got %d" (List.length rows))

let each f ppf rows = List.iter (f ppf) rows

let summary_fields (s : Measure.summary) =
  [
    ("n", Json.Int s.Measure.n);
    ("mean_us", Json.Float s.Measure.mean_us);
    ("p50_us", Json.Float s.Measure.p50_us);
    ("p90_us", Json.Float s.Measure.p90_us);
    ("p99_us", Json.Float s.Measure.p99_us);
    ("p999_us", Json.Float s.Measure.p999_us);
    ("min_us", Json.Float s.Measure.min_us);
    ("max_us", Json.Float s.Measure.max_us);
    ("frac_above_2ms", Json.Float s.Measure.frac_above_2ms);
  ]

let stress ?(cfg = Config.hector)
    ?(window_us = Lock_stress.default_config.Lock_stress.window_us) ~p ~hold_us
    algo =
  Lock_stress.run ~cfg
    ~config:{ Lock_stress.default_config with p; hold_us; window_us }
    algo

let stress_mean ?cfg ~p ~hold_us ?window_us algo =
  (stress ?cfg ~p ~hold_us ?window_us algo).Lock_stress.summary.Measure.mean_us

(* -- FIG4: instruction counts ------------------------------------------------ *)

type fig4_row = {
  algo : Instr_model.algo;
  ours : Instr_model.counts;
  paper : Instr_model.counts;
  predicted_us : float;
}

let counts_json (c : Instr_model.counts) =
  Json.Obj
    [
      ("atomic", Json.Int c.Instr_model.atomic);
      ("mem", Json.Int c.Instr_model.mem);
      ("reg", Json.Int c.Instr_model.reg);
      ("br", Json.Int c.Instr_model.br);
    ]

let fig4 =
  {
    name = "fig4";
    title = "FIG4 - instruction counts per uncontended lock/unlock pair";
    claim =
      "MCS 2/2/3/5, H1 2/1/3/5, H2 2/0/3/4, Spin 2/0/1/3 (Atomic/Mem/Reg/Br)";
    cells = Instr_model.all;
    run =
      (fun _ a ->
        [
          {
            algo = a;
            ours = Instr_model.counts a;
            paper = Instr_model.paper_counts a;
            predicted_us = Instr_model.predicted_us Config.hector a;
          };
        ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-8s %7s %5s %5s %5s   %-6s %9s@." "algo" "Atomic"
          "Mem" "Reg" "Br" "match" "pred(us)";
        List.iter
          (fun r ->
            let c = r.ours in
            Format.fprintf ppf "%-8s %7d %5d %5d %5d   %-6b %9.2f@."
              (Instr_model.algo_name r.algo)
              c.Instr_model.atomic c.Instr_model.mem c.Instr_model.reg
              c.Instr_model.br (r.ours = r.paper) r.predicted_us)
          rows);
    json =
      Some
        (list (fun r ->
             Json.Obj
               [
                 ("algo", Json.String (Instr_model.algo_name r.algo));
                 ("ours", counts_json r.ours);
                 ("paper", counts_json r.paper);
                 ("matches_paper", Json.Bool (r.ours = r.paper));
                 ("predicted_us", Json.Float r.predicted_us);
               ]));
    checks = [ ("matches_paper", every (fun r -> r.ours = r.paper)) ];
  }

(* -- UNC: uncontended latency ------------------------------------------------ *)

let uncontended =
  {
    name = "uncontended";
    title = "UNC - uncontended lock/unlock latency (Section 4.1.1)";
    claim = "MCS 5.40us -> H2-MCS 3.69us (32% better); spin 3.65us";
    cells = [ () ];
    run = (fun _ () -> Uncontended.run_all ());
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-10s %12s %12s@." "algo" "measured(us)" "model(us)";
        List.iter
          (fun (r : Uncontended.result) ->
            Format.fprintf ppf "%-10s %12.2f %12s@."
              (Lock.algo_name r.Uncontended.algo)
              r.Uncontended.pair_us
              (match r.Uncontended.predicted_us with
              | Some v -> Printf.sprintf "%.2f" v
              | None -> "-"))
          rows);
    json =
      Some
        (list (fun (r : Uncontended.result) ->
             Json.Obj
               [
                 ("algo", Json.String (Lock.algo_name r.Uncontended.algo));
                 ("pair_us", Json.Float r.Uncontended.pair_us);
                 ( "predicted_us",
                   match r.Uncontended.predicted_us with
                   | Some us -> Json.Float us
                   | None -> Json.Null );
               ]));
    checks = [];
  }

(* -- FIG5a/b: lock latency under contention --------------------------------- *)

type fig5_series = {
  algo5 : Lock.algo;
  points : (int * Lock_stress.result) list; (* p, result *)
}

let fig5 ~name ~hold_us =
  {
    name = String.lowercase_ascii name;
    title =
      Printf.sprintf "%s - lock response time under contention (hold %.0fus)"
        name hold_us;
    claim =
      "MCS/H1 scale best; H2 adds a constant repair cost (visible at hold 0); \
       spin(35us) degrades; spin(2ms) competitive in mean but starves";
    cells = Lock.all_paper_algos;
    run =
      (fun k algo5 ->
        [
          {
            algo5;
            points =
              List.map
                (fun p -> (p, stress ~p ~hold_us ~window_us:20_000.0 algo5))
                (Option.value k.procs ~default:paper_procs);
          };
        ]);
    print =
      (fun ppf series ->
        Format.fprintf ppf "%-12s" "p";
        (match series with
        | { points; _ } :: _ ->
          List.iter (fun (p, _) -> Format.fprintf ppf "%9d" p) points
        | [] -> ());
        Format.fprintf ppf "@.";
        List.iter
          (fun { algo5; points } ->
            Format.fprintf ppf "%-12s" (Lock.algo_name algo5);
            List.iter
              (fun (_, (r : Lock_stress.result)) ->
                Format.fprintf ppf "%9.1f" r.Lock_stress.summary.Measure.mean_us)
              points;
            Format.fprintf ppf "@.")
          series);
    json =
      Some
        (fun series ->
          Json.Obj
            [
              ("hold_us", Json.Float hold_us);
              ( "series",
                list
                  (fun s ->
                    Json.Obj
                      [
                        ("algo", Json.String (Lock.algo_name s.algo5));
                        ( "points",
                          list
                            (fun (p, (r : Lock_stress.result)) ->
                              Json.Obj
                                (("p", Json.Int p)
                                 :: summary_fields r.Lock_stress.summary
                                @ [
                                    ( "acquisitions",
                                      Json.Int r.Lock_stress.acquisitions );
                                  ]))
                            s.points );
                      ])
                  series );
            ]);
    checks = [];
  }

(* The Section 4.1.2 starvation observation: fraction of acquisitions of
   the 2 ms-backoff spin lock taking more than 2 ms, at p = 16 and a 25 us
   hold. *)
let starvation =
  {
    name = "starvation";
    title = "STARVATION - spin(2ms), p=16, hold 25us (Section 4.1.2)";
    claim = "over 13% of acquisitions took more than 2ms";
    cells = [ () ];
    run =
      (fun _ () ->
        [
          (stress ~p:16 ~hold_us:25.0 ~window_us:60_000.0
             (Lock.Spin { max_backoff_us = 2000.0 }))
            .Lock_stress.summary;
        ]);
    print =
      each (fun ppf (s : Measure.summary) ->
          Format.fprintf ppf
            "measured: %.1f%% of %d acquisitions over 2ms (p99 = %.0fus, max = \
             %.0fus)@."
            (100.0 *. s.Measure.frac_above_2ms)
            s.Measure.n s.Measure.p99_us s.Measure.max_us);
    json = Some (only (fun s -> Json.Obj (summary_fields s)));
    checks = [];
  }

(* -- FIG7: page-fault latency ------------------------------------------------- *)

type fig7_point = {
  x : int; (* p for 7a/7b, cluster size for 7c/7d *)
  mean_us : float;
  p99_us : float;
  retries : int;
  rpcs : int;
}

type fig7_series = { lock_algo : Lock.algo; series : fig7_point list }

let fig7_point x (s : Measure.summary) retries rpcs =
  { x; mean_us = s.Measure.mean_us; p99_us = s.Measure.p99_us; retries; rpcs }

let independent k ~p ~cluster_size lock_algo x =
  let r =
    Independent_faults.run
      ~config:
        {
          Independent_faults.default_config with
          p;
          iters = Option.value k.iters ~default:100;
          cluster_size;
          lock_algo;
        }
      ()
  in
  fig7_point x r.Independent_faults.summary r.Independent_faults.retries
    r.Independent_faults.rpcs

let shared k ~p ~cluster_size ~paper_rounds lock_algo x =
  let r =
    Shared_faults.run
      ~config:
        {
          Shared_faults.default_config with
          p;
          rounds = Option.value k.rounds ~default:paper_rounds;
          cluster_size;
          lock_algo;
        }
      ()
  in
  fig7_point x r.Shared_faults.summary r.Shared_faults.retries
    r.Shared_faults.rpcs

(* [point k algo x] runs one x value of the sweep; [xs k] are the values. *)
let fig7 ~name ~title ~claim ~xlabel ~json_xlabel ~xs ~point =
  {
    name;
    title;
    claim;
    cells = fig7_algos;
    run =
      (fun k lock_algo ->
        [
          {
            lock_algo;
            series = List.map (point k lock_algo) (xs k);
          };
        ]);
    print =
      (fun ppf series ->
        Format.fprintf ppf "%-12s" xlabel;
        (match series with
        | { series = pts; _ } :: _ ->
          List.iter (fun p -> Format.fprintf ppf "%9d" p.x) pts
        | [] -> ());
        Format.fprintf ppf "@.";
        List.iter
          (fun { lock_algo; series = pts } ->
            Format.fprintf ppf "%-12s" (Lock.algo_name lock_algo);
            List.iter (fun p -> Format.fprintf ppf "%9.1f" p.mean_us) pts;
            Format.fprintf ppf "@.")
          series);
    json =
      Some
        (fun series ->
          Json.Obj
            [
              ("xlabel", Json.String json_xlabel);
              ( "series",
                list
                  (fun s ->
                    Json.Obj
                      [
                        ("algo", Json.String (Lock.algo_name s.lock_algo));
                        ( "points",
                          list
                            (fun p ->
                              Json.Obj
                                [
                                  ("x", Json.Int p.x);
                                  ("mean_us", Json.Float p.mean_us);
                                  ("p99_us", Json.Float p.p99_us);
                                  ("retries", Json.Int p.retries);
                                  ("rpcs", Json.Int p.rpcs);
                                ])
                            s.series );
                      ])
                  series );
            ]);
    checks = [];
  }

let by_procs k = Option.value k.procs ~default:paper_procs
let by_sizes k = Option.value k.sizes ~default:paper_cluster_sizes

(* FIG7a/b run one 16-processor cluster. *)
let fig7a =
  fig7 ~name:"fig7a"
    ~title:"FIG7a - independent faults, one 16-processor cluster"
    ~claim:
      "little difference up to p=4; beyond that spin degrades; at p=16 spin \
       is over 2x the distributed locks"
    ~xlabel:"p" ~json_xlabel:"p" ~xs:by_procs
    ~point:(fun k algo p -> independent k ~p ~cluster_size:16 algo p)

let fig7b =
  fig7 ~name:"fig7b" ~title:"FIG7b - shared faults, one 16-processor cluster"
    ~claim:
      "smaller gap between distributed and spin locks: contention shifts to \
       the reserve bits"
    ~xlabel:"p" ~json_xlabel:"p" ~xs:by_procs
    ~point:(fun k algo p ->
      shared k ~p ~cluster_size:16 ~paper_rounds:20 algo p)

let fig7c =
  fig7 ~name:"fig7c"
    ~title:"FIG7c - independent faults, p=16, cluster-size sweep"
    ~claim:
      "small clusters best; no degradation for cluster size <= 4 (hybrid \
       matches fine-grain locking)"
    ~xlabel:"cluster" ~json_xlabel:"cluster_size" ~xs:by_sizes
    ~point:(fun k algo c -> independent k ~p:16 ~cluster_size:c algo c)

let fig7d =
  fig7 ~name:"fig7d" ~title:"FIG7d - shared faults, p=16, cluster-size sweep"
    ~claim:
      "moderate cluster sizes win: inter-cluster ownership traffic dominates \
       very small clusters, lock contention the largest"
    ~xlabel:"cluster" ~json_xlabel:"cluster_size" ~xs:by_sizes
    ~point:(fun k algo c ->
      shared k ~p:16 ~cluster_size:c ~paper_rounds:15 algo c)

(* -- CONST: absolute anchors -------------------------------------------------- *)

let constants =
  {
    name = "constants";
    title = "CONST - absolute cost anchors";
    claim =
      "soft fault ~160us of which ~40us locking; null RPC ~27us; \
       lookup+replicate ~88us";
    cells = [ () ];
    run = (fun _ () -> [ Calibration.run () ]);
    print =
      each
        (fun ppf (c : Calibration.result) ->
          Format.fprintf ppf "soft page fault     : %7.1f us@."
            c.Calibration.soft_fault_us;
          Format.fprintf ppf "  lock overhead     : %7.1f us@."
            c.Calibration.lock_overhead_us;
          Format.fprintf ppf "null RPC            : %7.1f us@."
            c.Calibration.null_rpc_us;
          Format.fprintf ppf
            "lookup + replicate  : %7.1f us (extra over a local fault)@."
            c.Calibration.replicate_extra_us);
    json =
      Some
        (only (fun (r : Calibration.result) ->
             Json.Obj
               [
                 ("soft_fault_us", Json.Float r.Calibration.soft_fault_us);
                 ("lockless_fault_us", Json.Float r.Calibration.lockless_fault_us);
                 ("lock_overhead_us", Json.Float r.Calibration.lock_overhead_us);
                 ("null_rpc_us", Json.Float r.Calibration.null_rpc_us);
                 ("replicate_fault_us", Json.Float r.Calibration.replicate_fault_us);
                 ("replicate_extra_us", Json.Float r.Calibration.replicate_extra_us);
               ]));
    checks = [];
  }

(* -- RETRY: optimistic vs pessimistic deadlock management --------------------- *)

let retries =
  {
    name = "retries";
    title = "RETRY - program destruction, optimistic vs pessimistic (2.3/2.5)";
    claim =
      "retries are common for destruction regardless of strategy; the \
       optimistic protocol avoids re-establishing state in the common case";
    cells = [ Hkernel.Procs.Optimistic; Hkernel.Procs.Pessimistic ];
    run =
      (fun _ strategy ->
        [ Destruction.run ~config:{ Destruction.default_config with strategy } () ]);
    print =
      each (fun ppf (r : Destruction.result) ->
          Format.fprintf ppf
            "%-12s destroys=%4d retries=%4d revalidations=%4d lost=%3d \
             mean=%8.1fus total=%9.0fus@."
            (Hkernel.Procs.strategy_name r.Destruction.strategy)
            r.Destruction.destroys r.Destruction.retries
            r.Destruction.revalidations r.Destruction.lost_races
            r.Destruction.destroy_summary.Measure.mean_us
            r.Destruction.total_us);
    json = None;
    checks = [];
  }

(* -- ABL1: locking granularity ------------------------------------------------ *)

let ablation_granularity =
  {
    name = "ablation-granularity";
    title = "ABL1 - hybrid vs coarse vs fine locking of the hash table";
    claim =
      "hybrid matches fine-grained concurrency for independent requests at a \
       fraction of the lock words; coarse serialises";
    cells = [ () ];
    run = (fun _ () -> Hash_stress.run_all ());
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-8s %10s %10s %10s %12s@." "mode" "mean(us)"
          "p99(us)" "atomics" "lock words";
        List.iter
          (fun (r : Hash_stress.result) ->
            Format.fprintf ppf "%-8s %10.1f %10.1f %10d %12d@."
              (Hkernel.Khash.granularity_name r.Hash_stress.granularity)
              r.Hash_stress.summary.Measure.mean_us
              r.Hash_stress.summary.Measure.p99_us r.Hash_stress.atomics
              r.Hash_stress.lock_words)
          rows);
    json = None;
    checks = [];
  }

(* -- ABL2: combining tree ------------------------------------------------------ *)

let ablation_combining =
  {
    name = "ablation-combining";
    title = "ABL2 - combining tree for descriptor replication (Section 2.2)";
    claim =
      "the combining tree bounds demand on the master to one request per \
       cluster under bursty simultaneous misses";
    cells = [ () ];
    run =
      (fun _ () ->
        let comb, direct = Replication_storm.run_both () in
        [ comb; direct ]);
    print =
      each (fun ppf (r : Replication_storm.result) ->
          Format.fprintf ppf
            "%-14s mean=%8.1fus p99=%8.1fus master-rpcs/storm=%5.1f \
             replications/storm=%5.1f@."
            r.Replication_storm.summary.Measure.label
            r.Replication_storm.summary.Measure.mean_us
            r.Replication_storm.summary.Measure.p99_us
            r.Replication_storm.master_rpcs_per_storm
            r.Replication_storm.replications_per_storm);
    json = None;
    checks = [];
  }

(* -- ABL3: compare&swap release (Section 5.2) ----------------------------------- *)

let ablation_cas =
  {
    name = "ablation-cas";
    title = "ABL3 - compare&swap release (Section 5.2)";
    claim = "with CAS the contended differential of the fetch&store repair shrinks";
    cells =
      [
        ("hector(swap)", Config.hector, Lock.Mcs_h2);
        ("hector(+cas)", Config.with_cas Config.hector, Lock.Mcs_h2);
        ("hector(+cas)", Config.with_cas Config.hector, Lock.Mcs_cas);
      ];
    run =
      (fun _ (machine, cfg, algo) ->
        let unc = (Uncontended.run ~cfg algo).Uncontended.pair_us in
        [ (machine, algo, unc, stress_mean ~cfg ~p:16 ~hold_us:0.0 algo) ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-14s %-12s %14s %16s@." "machine" "algo"
          "uncontended(us)" "contended p16(us)";
        List.iter
          (fun (machine, algo, unc, con) ->
            Format.fprintf ppf "%-14s %-12s %14.2f %16.1f@." machine
              (Lock.algo_name algo) unc con)
          rows);
    json = None;
    checks = [];
  }

(* -- ABL4: CLH vs MCS on non-coherent vs coherent NUMA ------------------------ *)

let machines = [ ("hector", Config.hector); ("numachine", Config.numachine) ]

let ablation_clh =
  {
    name = "ablation-clh";
    title = "ABL4 - CLH vs MCS queue locks across machines (Section 5.2)";
    claim =
      "CLH spins on the predecessor's node: fine with coherent caches, remote \
       traffic on HECTOR — why Hurricane picked MCS";
    cells = machines;
    run =
      (fun _ (machine, cfg) ->
        List.map
          (fun algo ->
            ( machine,
              algo,
              stress_mean ~cfg ~p:12 ~hold_us:5.0 ~window_us:10_000.0 algo ))
          [ Lock.Mcs_h1; Lock.Clh ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-12s %-8s %14s@." "machine" "algo" "contended(us)";
        List.iter
          (fun (machine, algo, us) ->
            Format.fprintf ppf "%-12s %-8s %14.1f@." machine
              (Lock.algo_name algo) us)
          rows);
    json = None;
    checks = [];
  }

(* -- ABL5: cache-based lock primitives (Section 5.2/5.3) ----------------------- *)

let ablation_cached_locks =
  {
    name = "ablation-cached-locks";
    title = "ABL5 - uncontended lock cost with cache-based primitives";
    claim =
      "on the coherent machine, lock pairs run in the cache: tens of lock \
       operations per miss (Section 5.3)";
    cells = machines;
    run =
      (fun _ (machine, cfg) ->
        List.map
          (fun algo ->
            let us = (Uncontended.run ~cfg algo).Uncontended.pair_us in
            (machine, algo, us, us *. float_of_int cfg.Config.mhz))
          [ Lock.Spin { max_backoff_us = 35.0 }; Lock.Mcs_h2 ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-12s %-12s %10s %12s@." "machine" "algo" "pair(us)"
          "pair(cycles)";
        List.iter
          (fun (machine, algo, us, cycles) ->
            Format.fprintf ppf "%-12s %-12s %10.3f %12.0f@." machine
              (Lock.algo_name algo) us cycles)
          rows);
    json = None;
    checks = [];
  }

(* -- ABL6: spin-then-block (Section 5.3) ---------------------------------------- *)

let ablation_spin_then_block =
  {
    name = "ablation-spin-then-block";
    title = "ABL6 - spin-then-block under long holds (Section 5.3)";
    claim =
      "with long critical sections, blocked waiters generate no traffic; the \
       hand-off premium is small";
    cells =
      [
        Lock.Mcs_h1;
        Lock.Spin { max_backoff_us = 35.0 };
        Lock.Spin_then_block { spin_us = 10.0 };
      ];
    run =
      (fun _ algo -> [ (algo, stress ~p:12 ~hold_us:50.0 ~window_us:20_000.0 algo) ]);
    print =
      each (fun ppf (algo, (r : Lock_stress.result)) ->
          Format.fprintf ppf "%-14s %a@." (Lock.algo_name algo) Measure.pp
            r.Lock_stress.summary);
    json = None;
    checks = [];
  }

(* -- ABL7: lock-free single-word updates (Section 5.3) --------------------------- *)

let ablation_lockfree =
  {
    name = "ablation-lockfree";
    title = "ABL7 - lock-free single-word updates (Section 5.3)";
    claim =
      "a CAS retry loop beats lock/update/unlock for leaf data on the CAS \
       machine, with exact results";
    cells = [ () ];
    run = (fun _ () -> Counter_stress.run_all ());
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-22s %10s %10s %8s %10s@." "mode" "per-op(us)"
          "atomics" "exact" "cas-fail";
        List.iter
          (fun (r : Counter_stress.result) ->
            Format.fprintf ppf "%-22s %10.2f %10d %8b %10d@."
              (Counter_stress.mode_name r.Counter_stress.mode)
              r.Counter_stress.per_op_us r.Counter_stress.atomics
              (r.Counter_stress.final_value = r.Counter_stress.expected_value)
              r.Counter_stress.cas_failures)
          rows);
    json = None;
    checks = [];
  }

(* -- ABL8: data-structure design (Section 2.5) ---------------------------------- *)

let ablation_layout =
  {
    name = "ablation-layout";
    title = "ABL8 - combined vs separate family tree (Section 2.5)";
    claim =
      "tree links inside the process descriptors make destruction and message \
       passing contend on the same reserve bits; a separate tree removes the \
       interference";
    cells = [ () ];
    run =
      (fun _ () ->
        let combined, separate = Messaging_mix.run_both () in
        [ combined; separate ]);
    print =
      each (fun ppf (r : Messaging_mix.result) ->
          Format.fprintf ppf
            "%-14s sends=%4d send-retries=%4d destroys=%3d \
             destroy-retries=%4d send-mean=%7.1fus destroy-mean=%8.1fus@."
            (Hkernel.Procs.layout_name r.Messaging_mix.layout)
            r.Messaging_mix.sends r.Messaging_mix.send_retries
            r.Messaging_mix.destroys r.Messaging_mix.destroy_retries
            r.Messaging_mix.send_summary.Measure.mean_us
            r.Messaging_mix.destroy_summary.Measure.mean_us);
    json = None;
    checks = [];
  }

(* -- ABL9: the queue-lock family on the modern machine -------------------------- *)

let ablation_lock_family =
  {
    name = "ablation-lock-family";
    title = "ABL9 - the lock family on the modern machine (Section 5.2)";
    claim =
      "spin: cheapest, unfair; ticket: fair, 2 words, one hot word; Anderson: \
       fair, P words/lock; CLH/MCS: fair, per-processor nodes; \
       spin-then-block: fair, no waiting traffic";
    cells =
      [
        Lock.Spin { max_backoff_us = 35.0 };
        Lock.Ticket;
        Lock.Anderson;
        Lock.Clh;
        Lock.Mcs_cas;
        Lock.Spin_then_block { spin_us = 10.0 };
      ];
    run =
      (fun _ algo ->
        let cfg = Config.numachine in
        [
          ( algo,
            (Uncontended.run ~cfg algo).Uncontended.pair_us,
            stress_mean ~cfg ~p:12 ~hold_us:5.0 ~window_us:10_000.0 algo,
            Lock.space_words ~n_procs:16 algo );
        ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-14s %14s %16s %14s@." "algo" "uncontended(us)"
          "contended p12(us)" "words/lock(P=16)";
        List.iter
          (fun (algo, unc, con, space) ->
            Format.fprintf ppf "%-14s %14.3f %16.1f %14d@." (Lock.algo_name algo)
              unc con space)
          rows);
    json = None;
    checks = [];
  }

(* -- TRY: TryLock fairness ------------------------------------------------------ *)

let trylock =
  {
    name = "trylock";
    title = "TRY - TryLock under a saturated distributed lock (Section 3.2)";
    claim =
      "retry-based TryLock starves (the lock is never observed free); the \
       soft-mask + deferred-work scheme completes every request";
    cells = [ () ];
    run = (fun _ () -> [ Trylock_starvation.run () ]);
    print =
      each
        (fun ppf (r : Trylock_starvation.result) ->
          Format.fprintf ppf "trylock-v2: %d/%d attempts succeeded (%.1f%%)@."
            r.Trylock_starvation.try_successes
            r.Trylock_starvation.try_attempts
            (100.0 *. r.Trylock_starvation.try_success_rate);
          Format.fprintf ppf "deferred-work: %d/%d completed; latency %a@."
            r.Trylock_starvation.deferred_completed
            r.Trylock_starvation.deferred_posted Measure.pp
            r.Trylock_starvation.deferred_latency);
    json = None;
    checks = [];
  }

(* -- CLASSES: the four access-behaviour classes at once -------------------------- *)

let classes =
  {
    name = "classes";
    title = "CLASSES - the four access-behaviour classes at once (Section 1)";
    claim =
      "clustering isolates the independent classes; replication absorbs read \
       sharing; only write sharing pays cross-cluster costs";
    cells = [ () ];
    run = (fun _ () -> [ Four_classes.run () ]);
    print =
      each
        (fun ppf (r : Four_classes.result) ->
          let line (s : Measure.summary) =
            Format.fprintf ppf "  %a@." Measure.pp s
          in
          line r.Four_classes.non_concurrent;
          line r.Four_classes.independent;
          line r.Four_classes.read_shared;
          line r.Four_classes.write_shared;
          Format.fprintf ppf
            "  cross-cluster: %d replications, %d invalidations, %d \
             retries@."
            r.Four_classes.replications r.Four_classes.invalidations
            r.Four_classes.retries);
    json = None;
    checks = [];
  }

(* -- COW: simultaneous copy-on-write breaks (Sections 2.3 / 2.5) ----------------- *)

let cow =
  {
    name = "cow";
    title = "COW - simultaneous copy-on-write faults (Sections 2.3/2.5)";
    claim =
      "retries are required independent of the strategy; the pessimistic one \
       additionally finds the shared page gone and must handle it";
    cells = [ () ];
    run =
      (fun _ () ->
        let opt, pes = Cow_storm.run_both () in
        [ opt; pes ]);
    print =
      each (fun ppf (r : Cow_storm.result) ->
          Format.fprintf ppf
            "%-12s broke=%4d found-gone=%3d retries=%4d mean=%8.1fus \
             p99=%8.1fus@."
            (Hkernel.Procs.strategy_name r.Cow_storm.strategy)
            r.Cow_storm.broke r.Cow_storm.found_gone r.Cow_storm.retries
            r.Cow_storm.summary.Measure.mean_us
            r.Cow_storm.summary.Measure.p99_us);
    json = None;
    checks = [];
  }

(* -- FS: the file server (Section 5.1) ------------------------------------------- *)

let fs =
  {
    name = "fs";
    title = "FS - the file server, same techniques (Section 5.1)";
    claim =
      "per-cluster block caches + combining fetches give the file system the \
       same concurrency; read-ahead turns sequential misses into hits";
    cells = [ () ];
    run = (fun _ () -> File_read.run_grid ());
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-16s %10s %10s %10s %12s@." "workload" "mean(us)"
          "p99(us)" "hit rate" "fetch RPCs";
        List.iter
          (fun (r : File_read.result) ->
            Format.fprintf ppf "%-16s %10.1f %10.1f %9.0f%% %12d@."
              r.File_read.summary.Measure.label
              r.File_read.summary.Measure.mean_us
              r.File_read.summary.Measure.p99_us
              (100.0 *. r.File_read.hit_rate)
              r.File_read.fetch_rpcs)
          rows);
    json = None;
    checks = [];
  }

(* -- FAULTS: injected holder stalls vs recovery mechanisms ----------------------- *)

type fault_row = {
  fmech : Fault_storm.mechanism;
  stall_every_us : float; (* 0 = fault-free baseline *)
  fault_ops : int;
  retained : float; (* fault_ops / the same mechanism's baseline ops *)
  recovery_mean_us : float;
  recovery_p99_us : float;
  fault_lock_timeouts : int;
  fault_reserve_timeouts : int;
  fault_gave_ups : int;
  fault_deferred : int;
  stalls : int;
}

(* One stall dose (scheduled mode, identical for every mechanism) per
   period, plus a fault-free baseline to express throughput as a retained
   fraction; one cell per mechanism. *)
let fault_rows mech =
  let cfg = Config.hector in
  let stall_cycles = Config.cycles_of_us cfg 1000.0 in
  let run ~period_us =
    let fault =
      if period_us <= 0.0 then None
      else
        Some
          {
            Eventsim.Fault.disabled with
            seed = 42;
            stall_every = Config.cycles_of_us cfg period_us;
            stall_cycles;
          }
    in
    Fault_storm.run ~cfg ~config:{ Fault_storm.default_config with fault } mech
  in
  let base = run ~period_us:0.0 in
  let row ~period_us (r : Fault_storm.result) =
    {
      fmech = mech;
      stall_every_us = period_us;
      fault_ops = r.Fault_storm.ops;
      retained =
        (if base.Fault_storm.ops = 0 then 0.0
         else float_of_int r.Fault_storm.ops /. float_of_int base.Fault_storm.ops);
      recovery_mean_us = r.Fault_storm.recovery.Measure.mean_us;
      recovery_p99_us = r.Fault_storm.recovery.Measure.p99_us;
      fault_lock_timeouts = r.Fault_storm.lock_timeouts;
      fault_reserve_timeouts = r.Fault_storm.reserve_timeouts;
      fault_gave_ups = r.Fault_storm.rpc_gave_ups;
      fault_deferred = r.Fault_storm.deferred;
      stalls = r.Fault_storm.stalls_injected;
    }
  in
  row ~period_us:0.0 base
  :: List.map
       (fun period_us -> row ~period_us (run ~period_us))
       [ 4000.0; 2000.0; 1000.0 ]

let fault_matrix =
  {
    name = "fault-matrix";
    title = "FAULTS - injected holder stalls vs recovery mechanisms";
    claim =
      "a stalled holder freezes everything behind an unbounded spin or retry; \
       timeouts re-search around it and a bounded RPC budget degrades to \
       pessimistic fallbacks instead of looping";
    cells =
      [ Fault_storm.No_timeout; Fault_storm.Timeout; Fault_storm.Bounded_retry ];
    run = (fun _ mech -> fault_rows mech);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-14s %10s %6s %9s %11s %11s %6s %6s %6s %7s %7s@."
          "mechanism" "stall/us" "doses" "ops" "retained" "recov(us)" "ltmo"
          "rtmo" "gaveup" "defer" "p99(us)";
        List.iter
          (fun r ->
            Format.fprintf ppf
              "%-14s %10.0f %6d %9d %10.0f%% %11.1f %6d %6d %6d %7d %7.1f@."
              (Fault_storm.mechanism_name r.fmech)
              r.stall_every_us r.stalls r.fault_ops
              (100.0 *. r.retained)
              r.recovery_mean_us r.fault_lock_timeouts r.fault_reserve_timeouts
              r.fault_gave_ups r.fault_deferred r.recovery_p99_us)
          rows);
    json = None;
    checks = [];
  }

(* -- VERIFY: the lockdep checker against planted violations ---------------------- *)

let verify =
  let probe_name (r : Verify_probes.result) =
    Verify_probes.probe_name r.Verify_probes.probe
  in
  {
    name = "verify";
    title = "VERIFY - lockdep checker vs planted violations";
    claim =
      "each probe plants one class of locking error; the checker must catch \
       every one (the watchdog probes by aborting an otherwise-endless run) \
       and stay silent on the clean storm";
    cells = Verify_probes.all;
    run = (fun _ probe -> [ Verify_probes.run probe ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-16s %-18s %6s %6s %8s %6s@." "probe" "expected"
          "total" "hits" "aborted" "ok";
        List.iter
          (fun (r : Verify_probes.result) ->
            Format.fprintf ppf "%-16s %-18s %6d %6d %8s %6s@." (probe_name r)
              (match r.Verify_probes.expected with
              | None -> "none"
              | Some k -> Verify.kind_name k)
              r.Verify_probes.violations r.Verify_probes.hits
              (if r.Verify_probes.aborted then "yes" else "no")
              (if r.Verify_probes.ok then "ok" else "FAIL"))
          rows;
        List.iter
          (fun (r : Verify_probes.result) ->
            if r.Verify_probes.first <> "" then
              Format.fprintf ppf "  %-16s %s@." (probe_name r)
                r.Verify_probes.first)
          rows);
    json = None;
    checks =
      [ ("every probe ok", every (fun (r : Verify_probes.result) -> r.ok)) ];
  }

(* -- OBS: contention profile of the fault storm ---------------------------------- *)

type obs_result = { obs_rows : Obs.row list; obs_storm : Fault_storm.result }

(* Station = cluster: the storm runs on a bare machine, so the natural
   cluster attribution is the HECTOR station each processor sits on. The
   dosed stall plan matches the fault matrix's middle column, giving the
   profile real contention to attribute. *)
let obs_profile () =
  let cfg = Config.hector in
  let obs =
    Obs.create
      ~cluster_of:(Config.station_of_proc cfg)
      ~n_clusters:cfg.Config.stations ~n_procs:(Config.n_procs cfg) ()
  in
  let fault =
    Some
      {
        Eventsim.Fault.disabled with
        seed = 42;
        stall_every = Config.cycles_of_us cfg 2000.0;
        stall_cycles = Config.cycles_of_us cfg 1000.0;
      }
  in
  let storm =
    Fault_storm.run ~cfg
      ~config:{ Fault_storm.default_config with fault }
      ~obs Fault_storm.Timeout
  in
  { obs_rows = Obs.profile_rows obs; obs_storm = storm }

let print_obs ppf r =
  let us c = Config.us_of_cycles Config.hector c in
  Format.fprintf ppf "%-16s %-8s %9s %9s %12s %10s %10s %12s %9s %11s@."
    "class" "cluster" "acqs" "cont" "wait(us)" "avg(us)" "maxw(us)" "hold(us)"
    "handoff" "local/rem";
  let line name cluster (c : Obs.cells) =
    Format.fprintf ppf
      "%-16s %-8s %9d %9d %12.1f %10.2f %10.1f %12.1f %9d %5d/%-5d@." name
      cluster c.Obs.acqs c.Obs.contended
      (us c.Obs.wait_cycles)
      (if c.Obs.acqs + c.Obs.contended = 0 then 0.0
       else us c.Obs.wait_cycles /. float_of_int (max c.Obs.acqs c.Obs.contended))
      (us c.Obs.max_wait_cycles)
      (us c.Obs.hold_cycles) c.Obs.handoffs c.Obs.handoffs_local
      c.Obs.handoffs_remote
  in
  List.iter
    (fun (row : Obs.row) ->
      line row.Obs.row_class "total" row.Obs.total;
      List.iter
        (fun (cl, cells) -> line "" (Printf.sprintf "  c%d" cl) cells)
        row.Obs.by_cluster)
    r.obs_rows;
  let s = r.obs_storm in
  Format.fprintf ppf
    "storm: ops=%d deferred=%d rpc=%d/%d stalls=%d (mechanism %s)@."
    s.Fault_storm.ops s.Fault_storm.deferred s.Fault_storm.rpc_ok
    s.Fault_storm.rpc_calls s.Fault_storm.stalls_injected
    (Fault_storm.mechanism_name s.Fault_storm.mechanism)

let obs =
  {
    name = "obs";
    title = "OBS - where did the cycles go (dosed fault storm)";
    claim =
      "the argument of Figures 5/7 is made by attributing waiting time to \
       specific locks; here every wait/hold cycle is charged to its lock \
       class and the waiting processor's cluster";
    cells = [ () ];
    run = (fun _ () -> [ obs_profile () ]);
    print = each print_obs;
    json = None;
    checks = [];
  }

(* -- NUMA-LOCKS: cross-cluster contention, composites vs flat MCS ---------------- *)

let numa_algos = Lock.Mcs_h2 :: Lock.all_numa_algos

let remote_frac (r : Numa_stress.result) =
  let local = r.Numa_stress.local_handoffs in
  let remote = r.Numa_stress.remote_handoffs in
  let total = local + remote in
  if total = 0 then 0.0 else float_of_int remote /. float_of_int total

(* Flat MCS against the three NUMA composites, sweeping how finely 16
   processors are clustered and how long the lock is held. The composites
   must show a lower cross-cluster hand-off fraction whenever there is
   more than one cluster; at hold > 0 the locality should also buy back
   latency (the protected data stops migrating every hand-off). A row is
   (algorithm, clusters, hold, result). *)
let numa_locks =
  {
    name = "numa_locks";
    title = "NUMA-LOCKS - cross-cluster contention (cohort/HMCS/CNA vs MCS)";
    claim =
      "16 processors hammer one lock, partitioned into clusters; NUMA-aware \
       locks hand off within a cluster when they can, so the fraction of \
       hand-offs crossing a cluster boundary - and with it the data's \
       migration traffic - drops against flat MCS";
    cells = numa_algos;
    run =
      (fun _ algo ->
        List.concat_map
          (fun n_clusters ->
            List.map
              (fun hold_us ->
                ( algo,
                  n_clusters,
                  hold_us,
                  Numa_stress.run
                    ~config:{ Numa_stress.default_config with n_clusters; hold_us }
                    algo ))
              [ 0.0; 10.0 ])
          [ 1; 2; 4 ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-15s %8s %9s %10s %9s %9s %9s %8s %10s@." "lock"
          "clusters" "hold(us)" "mean(us)" "p99(us)" "local" "remote" "rem%"
          "maxw(us)";
        List.iter
          (fun (algo, clusters, hold_us, (r : Numa_stress.result)) ->
            Format.fprintf ppf
              "%-15s %8d %9.0f %10.2f %9.1f %9d %9d %7.1f%% %10.1f@."
              (Lock.algo_name algo) clusters hold_us
              r.Numa_stress.summary.Measure.mean_us
              r.Numa_stress.summary.Measure.p99_us r.Numa_stress.local_handoffs
              r.Numa_stress.remote_handoffs
              (100.0 *. remote_frac r)
              r.Numa_stress.max_wait_us)
          rows);
    json =
      Some
        (list (fun (algo, clusters, hold_us, (r : Numa_stress.result)) ->
             Json.Obj
               [
                 ("algo", Json.String (Lock.algo_name algo));
                 ("clusters", Json.Int clusters);
                 ("hold_us", Json.Float hold_us);
                 ("mean_us", Json.Float r.Numa_stress.summary.Measure.mean_us);
                 ("p99_us", Json.Float r.Numa_stress.summary.Measure.p99_us);
                 ("acquisitions", Json.Int r.Numa_stress.acquisitions);
                 ("local_handoffs", Json.Int r.Numa_stress.local_handoffs);
                 ("remote_handoffs", Json.Int r.Numa_stress.remote_handoffs);
                 ("remote_frac", Json.Float (remote_frac r));
                 ("max_wait_us", Json.Float r.Numa_stress.max_wait_us);
               ]));
    checks = [];
  }

(* -- HASH-SCALING: sharded table + optimistic reads ------------------------------ *)

(* The single-lock hybrid against the sharded table at several shard
   counts, with the seqlock read path off and on, sweeping concurrency and
   read mix. The claims (asserted by the regression tests): throughput
   scales with the shard count once the single lock saturates, and at
   read-heavy mixes the optimistic path serves lookups for a pair of loads
   instead of a lock round-trip. A row is (p, read ratio, result); one cell
   per p. *)
let hash_rows p =
  let point ~read_ratio ~granularity ~shards ~optimistic =
    ( p,
      read_ratio,
      Hash_scaling.run
        ~config:
          {
            Hash_scaling.default_config with
            p;
            read_ratio;
            granularity;
            shards;
            optimistic;
          }
        () )
  in
  List.concat_map
    (fun read_ratio ->
      point ~read_ratio ~granularity:Hkernel.Khash.Hybrid ~shards:1
        ~optimistic:false
      :: List.concat_map
           (fun shards ->
             List.map
               (fun optimistic ->
                 point ~read_ratio ~granularity:Hkernel.Khash.Sharded ~shards
                   ~optimistic)
               [ false; true ])
           [ 2; 4; 8 ])
    [ 0.5; 0.9 ]

let hash_scaling =
  {
    name = "hash_scaling";
    title = "HASH-SCALING - sharded table + seqlock optimistic reads";
    claim =
      "the hybrid table's single coarse lock is the ceiling within a \
       cluster; splitting the bins over per-shard locks homed on distinct \
       PMMs restores scaling, and a per-shard sequence word lets read-only \
       lookups skip the lock entirely (a pair of loads instead of an \
       acquire/release round-trip)";
    cells = [ 4; 8; 16 ];
    run = (fun _ p -> hash_rows p);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-8s %6s %4s %5s %5s %10s %9s %10s %9s %6s %5s@."
          "mode" "shards" "opt" "p" "read" "read(us)" "p99(us)" "upd(us)"
          "thr/ms" "hits" "fb";
        List.iter
          (fun (p, read_ratio, (r : Hash_scaling.result)) ->
            Format.fprintf ppf
              "%-8s %6d %4s %5d %4.0f%% %10.2f %9.1f %10.2f %9.1f %6d %5d@."
              (Hkernel.Khash.granularity_name r.Hash_scaling.granularity)
              r.Hash_scaling.shards
              (if r.Hash_scaling.optimistic then "yes" else "no")
              p (100.0 *. read_ratio)
              r.Hash_scaling.read_summary.Measure.mean_us
              r.Hash_scaling.read_summary.Measure.p99_us
              r.Hash_scaling.update_summary.Measure.mean_us
              r.Hash_scaling.throughput_ops_ms r.Hash_scaling.optimistic_hits
              r.Hash_scaling.optimistic_fallbacks)
          rows);
    json =
      Some
        (list (fun (p, read_ratio, (r : Hash_scaling.result)) ->
             Json.Obj
               [
                 ( "granularity",
                   Json.String
                     (Hkernel.Khash.granularity_name r.Hash_scaling.granularity)
                 );
                 ("shards", Json.Int r.Hash_scaling.shards);
                 ("optimistic", Json.Bool r.Hash_scaling.optimistic);
                 ("p", Json.Int p);
                 ("read_ratio", Json.Float read_ratio);
                 ( "read_mean_us",
                   Json.Float r.Hash_scaling.read_summary.Measure.mean_us );
                 ( "read_p99_us",
                   Json.Float r.Hash_scaling.read_summary.Measure.p99_us );
                 ( "update_mean_us",
                   Json.Float r.Hash_scaling.update_summary.Measure.mean_us );
                 ("throughput_ops_ms", Json.Float r.Hash_scaling.throughput_ops_ms);
                 ("optimistic_hits", Json.Int r.Hash_scaling.optimistic_hits);
                 ( "optimistic_fallbacks",
                   Json.Int r.Hash_scaling.optimistic_fallbacks );
                 ("atomics", Json.Int r.Hash_scaling.atomics);
               ]));
    checks = [];
  }

(* -- ABORT-STORM: timed abandonment under a planted holder stall ----------------- *)

(* Each abortable algorithm — flat MCS and the three NUMA composites —
   under the same planted cross-cluster holder stall. The bound_ratio
   column is the acceptance criterion: every timed waiter returned within
   that multiple of its deadline, where the unbounded protocol would have
   ridden out the whole stall; remote aborts > 0 shows waiters expired at
   every level of the composite, not just beside the holder. *)
let abort_storm =
  {
    name = "abort_storm";
    title = "ABORT-STORM - timed abandonment under a stalled holder";
    claim =
      "one processor takes the lock and goes dark for ~10x any waiter's \
       deadline; every other processor attempts through the timed face. \
       Each expired waiter must return within a bounded multiple of its \
       deadline (the ratio column) instead of riding out the stall, remote \
       aborts show waiters expiring at every level of the NUMA composite, \
       and the lock must recover promptly - abandoned queue nodes repaired \
       at the next hand-offs - once the holder releases";
    cells = numa_algos;
    run = (fun _ algo -> [ Abort_storm.run algo ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-15s %8s %6s %7s %6s %9s %9s %6s %9s %7s %7s %5s@."
          "lock" "attempts" "acq" "aborts" "stall" "over(us)" "maxov(us)"
          "ratio" "rec(us)" "rem-ab" "repair" "free";
        List.iter
          (fun (r : Abort_storm.result) ->
            Format.fprintf ppf
              "%-15s %8d %6d %7d %6d %9.2f %9.1f %6.2f %9.1f %7d %7d %5s@."
              (Lock.algo_name r.algo) r.attempts r.acquisitions r.aborts
              r.stalls r.overshoot.Measure.mean_us r.max_overshoot_us
              r.bound_ratio r.recovery.Measure.mean_us r.remote_aborts
              r.obs_repairs
              (if r.final_free then "yes" else "NO"))
          rows);
    json =
      Some
        (list (fun (r : Abort_storm.result) ->
             Json.Obj
               [
                 ("algo", Json.String (Lock.algo_name r.algo));
                 ("attempts", Json.Int r.attempts);
                 ("acquisitions", Json.Int r.acquisitions);
                 ("aborts", Json.Int r.aborts);
                 ("fast_fails", Json.Int r.fast_fails);
                 ("stalls", Json.Int r.stalls);
                 ("overshoot_mean_us", Json.Float r.overshoot.Measure.mean_us);
                 ("overshoot_p99_us", Json.Float r.overshoot.Measure.p99_us);
                 ("overshoot_max_us", Json.Float r.max_overshoot_us);
                 ("bound_ratio", Json.Float r.bound_ratio);
                 ("recovery_mean_us", Json.Float r.recovery.Measure.mean_us);
                 ("recovery_max_us", Json.Float r.recovery.Measure.max_us);
                 ("obs_aborts", Json.Int r.obs_aborts);
                 ("obs_repairs", Json.Int r.obs_repairs);
                 ("remote_aborts", Json.Int r.remote_aborts);
                 ("final_free", Json.Bool r.final_free);
               ]));
    (* Every expired waiter returned within a small multiple of its
       deadline, and the lock is free once the storm drains. *)
    checks =
      [
        ("final_free", every (fun (r : Abort_storm.result) -> r.final_free));
        ("aborts > 0", every (fun (r : Abort_storm.result) -> r.aborts > 0));
        ( "bound_ratio < 8",
          every (fun (r : Abort_storm.result) -> r.bound_ratio < 8.0) );
      ];
  }

(* -- CRASH-STORM: fail-stop mid-CS kills, crash-recoverable locking --------------- *)

(* Representative flat queue locks (MCS, CLH, and the non-abortable Ticket,
   whose waiters recover in-spin) plus the NUMA composites — each under the
   same planted mid-critical-section kill schedule. *)
let crash_algos = Lock.Mcs_h2 :: Lock.Clh :: Lock.Ticket :: Lock.all_numa_algos

let worst_cluster_p99 (r : Crash_storm.result) =
  List.fold_left
    (fun acc (_, s) -> Float.max acc s.Measure.p99_us)
    0.0 r.Crash_storm.by_cluster

let crash_storm =
  {
    name = "crash_storm";
    title = "CRASH-STORM - fail-stop kills mid-critical-section";
    claim =
      "victim processors fail-stop while holding the lock (the fiber parks, \
       releasing nothing); every survivor acquires through the recoverable \
       face, whose dead-holder detector force-releases each orphaned hold. \
       Conservation demands a recovery per kill, an installed lockdep \
       checker must see every forced release as a legal transfer (zero \
       violations), and the storm must end with the lock free";
    cells = crash_algos;
    run = (fun _ algo -> [ Crash_storm.run algo ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf
          "%-15s %6s %6s %7s %6s %6s %5s %9s %9s %9s %5s %10s %5s@." "lock"
          "kills" "acq" "crashes" "recov" "lkdep" "viol" "rec(us)" "p99(us)"
          "max(us)" "clus" "worstp99" "free";
        List.iter
          (fun (r : Crash_storm.result) ->
            Format.fprintf ppf
              "%-15s %6d %6d %7d %6d %6d %5d %9.1f %9.1f %9.1f %5d %10.1f %5s@."
              (Lock.algo_name r.algo) r.kills r.acquisitions r.obs_crashes
              r.obs_recoveries r.lockdep_recoveries r.lockdep_violations
              r.recovery.Measure.mean_us r.recovery.Measure.p99_us
              r.recovery.Measure.max_us
              (List.length r.by_cluster)
              (worst_cluster_p99 r)
              (if r.final_free then "yes" else "NO"))
          rows);
    json =
      Some
        (list (fun (r : Crash_storm.result) ->
             Json.Obj
               [
                 ("algo", Json.String (Lock.algo_name r.algo));
                 ("kills", Json.Int r.kills);
                 ("acquisitions", Json.Int r.acquisitions);
                 ("obs_crashes", Json.Int r.obs_crashes);
                 ("obs_recoveries", Json.Int r.obs_recoveries);
                 ("lockdep_recoveries", Json.Int r.lockdep_recoveries);
                 ("lockdep_violations", Json.Int r.lockdep_violations);
                 ("recovery_mean_us", Json.Float r.recovery.Measure.mean_us);
                 ("recovery_p99_us", Json.Float r.recovery.Measure.p99_us);
                 ("recovery_max_us", Json.Float r.recovery.Measure.max_us);
                 ("recovery_n", Json.Int r.recovery.Measure.n);
                 ("clusters_hit", Json.Int (List.length r.by_cluster));
                 ("worst_cluster_p99_us", Json.Float (worst_cluster_p99 r));
                 ("final_free", Json.Bool r.final_free);
               ]));
    (* Conservation: every planted kill recovered; the checker legalised
       every forced release; the lock is free once the survivors drain. *)
    checks =
      [
        ("final_free", every (fun (r : Crash_storm.result) -> r.final_free));
        ( "every kill recovered",
          every (fun (r : Crash_storm.result) ->
              r.kills > 0 && r.recovery.Measure.n = r.kills) );
        ( "obs_recoveries >= kills",
          every (fun (r : Crash_storm.result) -> r.obs_recoveries >= r.kills) );
        ( "zero violations",
          every (fun (r : Crash_storm.result) -> r.lockdep_violations = 0) );
      ];
  }

(* -- RW-SCALING: read-mostly lookups, reader parallelism ------------------------- *)

(* The read-mostly candidates, one per strategy family: the exclusive-lock
   baseline every writer-serialising algorithm is stuck at, the RW lock
   over the MCS cohort (plus its centralised-indicator baseline — the
   remote-traffic comparator), the seqlock optimistic path, and
   HURRICANE-shaped per-cluster replication. One cell per style. *)
let rw_styles =
  [
    Rw_scaling.Mutex Lock.c_mcs_mcs;
    Rw_scaling.Rw_lock
      {
        writer = Lock.c_mcs_mcs;
        policy = Rwlock.Writer_blocking;
        centralised = false;
      };
    Rw_scaling.Rw_lock
      { writer = Lock.Mcs_h2; policy = Rwlock.Writer_blocking; centralised = true };
    Rw_scaling.Seqlock_style { writer = Lock.Mcs_h2 };
    Rw_scaling.Replicated { writer = Lock.Mcs_h2 };
  ]

let rw_scaling =
  {
    name = "rw_scaling";
    title = "RW-SCALING - read-mostly lookups: RW lock vs seqlock vs replication";
    claim =
      "every writer-serialising lock queues readers like writers (peak \
       concurrent readers 1 by construction); per-cluster reader indicators \
       let readers CAS their own cluster's word and run in parallel, the \
       seqlock serves reads for a pair of loads, and replication reads a \
       local copy but pays an update broadcast per write. rd-rem counts \
       read-path indicator ops that crossed a cluster boundary - zero for \
       the distributed layout, the centralised baseline's defining cost";
    cells = rw_styles;
    run =
      (fun _ style ->
        List.concat_map
          (fun read_ratio ->
            List.map
              (fun n_clusters ->
                Rw_scaling.run
                  ~config:
                    {
                      Rw_scaling.default_config with
                      Rw_scaling.style;
                      read_ratio;
                      n_clusters;
                      ops = 200;
                    }
                  ())
              [ 1; 2; 4 ])
          [ 0.95; 0.99; 0.999 ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-22s %5s %4s %3s %9s %8s %9s %9s %7s %5s %7s %6s@."
          "style" "read" "clus" "p" "read(us)" "p99.9" "write(us)" "rdthr/ms"
          "peak-rd" "rd-rem" "sq-ab" "viol";
        List.iter
          (fun (r : Rw_scaling.result) ->
            Format.fprintf ppf
              "%-22s %4.1f%% %4d %3d %9.2f %8.1f %9.2f %9.1f %7d %5d %7d %6d@."
              r.style_name (100.0 *. r.read_ratio) r.n_clusters r.p
              r.read_summary.Measure.mean_us r.read_summary.Measure.p999_us
              r.write_summary.Measure.mean_us r.read_throughput_ops_ms
              r.peak_readers r.read_remote r.seq_aborts r.lockdep_violations)
          rows);
    json =
      Some
        (list (fun (r : Rw_scaling.result) ->
             Json.Obj
               [
                 ("style", Json.String r.style_name);
                 ("read_ratio", Json.Float r.read_ratio);
                 ("clusters", Json.Int r.n_clusters);
                 ("p", Json.Int r.p);
                 ("read_mean_us", Json.Float r.read_summary.Measure.mean_us);
                 ("read_p99_us", Json.Float r.read_summary.Measure.p99_us);
                 ("read_p999_us", Json.Float r.read_summary.Measure.p999_us);
                 ("write_mean_us", Json.Float r.write_summary.Measure.mean_us);
                 ("throughput_ops_ms", Json.Float r.throughput_ops_ms);
                 ("read_throughput_ops_ms", Json.Float r.read_throughput_ops_ms);
                 ("reads", Json.Int r.reads_done);
                 ("writes", Json.Int r.writes_done);
                 ("peak_readers", Json.Int r.peak_readers);
                 ("read_remote", Json.Int r.read_remote);
                 ("seq_aborts", Json.Int r.seq_aborts);
                 ("lockdep_violations", Json.Int r.lockdep_violations);
               ]));
    (* Reads parallelise under every non-mutex style (a mutex pins the
       peak at 1 by construction), and the distributed indicator layout
       keeps the read path cluster-local. *)
    checks =
      [
        ( "zero violations",
          every (fun (r : Rw_scaling.result) -> r.lockdep_violations = 0) );
        ( "mutex peak_readers = 1",
          every (fun (r : Rw_scaling.result) ->
              match r.style with Mutex _ -> r.peak_readers = 1 | _ -> true) );
        ( "shared peak_readers > 1",
          every (fun (r : Rw_scaling.result) ->
              match r.style with Mutex _ -> true | _ -> r.peak_readers > 1) );
        ( "distributed read_remote = 0",
          every (fun (r : Rw_scaling.result) ->
              match r.style with
              | Rw_lock { centralised = false; _ } -> r.read_remote = 0
              | _ -> true) );
      ];
  }

(* -- SLO: open-loop sustained-request stream ------------------------------------- *)

(* Offered-load sweep: comfortable, near the knee, and past it — the top
   rate exceeds the measured table capacity (~300 requests/ms for the
   default 16 servers over a 16-shard million-element table), so its tail
   percentiles are dominated by queueing; the low rate's tails stay within
   a small multiple of the service time. A row is (cell config, result). *)
let slo_rates = [ 150.0; 250.0; 350.0 ]

let slo =
  {
    name = "slo";
    title = "SLO - open-loop request stream over the million-element table";
    claim =
      "requests arrive on their own clock and queue behind a random server, \
       so latency includes queueing delay: as the offered rate approaches \
       the table's capacity the p99/p99.9 tails leave the service time long \
       before the mean moves - the closed-loop workloads cannot show this. \
       every point runs under the lockdep checker (viol must be 0)";
    cells = slo_rates;
    run =
      (fun _ rate_per_ms ->
        let config = { Slo_stream.default_config with Slo_stream.rate_per_ms } in
        [ (config, Slo_stream.run ~config ()) ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-9s %3s %9s %7s %9s %8s %8s %9s %9s %8s %6s %5s@."
          "rate/ms" "p" "elements" "done" "ach/ms" "rd-p50" "rd-p99" "rd-p99.9"
          "up-p99" "backlog" "opt-h" "viol";
        List.iter
          (fun ((c : Slo_stream.config), (r : Slo_stream.result)) ->
            Format.fprintf ppf
              "%9.1f %3d %9d %7d %9.1f %8.2f %8.2f %9.2f %9.2f %8d %6d %5d@."
              c.rate_per_ms c.p c.elements r.completed r.achieved_per_ms
              r.read_summary.Measure.p50_us r.read_summary.Measure.p99_us
              r.read_summary.Measure.p999_us r.update_summary.Measure.p99_us
              r.peak_backlog r.optimistic_hits r.lockdep_violations)
          rows);
    json =
      Some
        (list (fun ((c : Slo_stream.config), (r : Slo_stream.result)) ->
             Json.Obj
               [
                 ("offered_per_ms", Json.Float c.rate_per_ms);
                 ("p", Json.Int c.p);
                 ("elements", Json.Int c.elements);
                 ("shards", Json.Int c.shards);
                 ("completed", Json.Int r.completed);
                 ("achieved_per_ms", Json.Float r.achieved_per_ms);
                 ("read", Json.Obj (summary_fields r.read_summary));
                 ("update", Json.Obj (summary_fields r.update_summary));
                 ("peak_backlog", Json.Int r.peak_backlog);
                 ("optimistic_hits", Json.Int r.optimistic_hits);
                 ("optimistic_fallbacks", Json.Int r.optimistic_fallbacks);
                 ("lockdep_violations", Json.Int r.lockdep_violations);
               ]));
    checks =
      [
        ("completed > 0", every (fun (_, (r : Slo_stream.result)) -> r.completed > 0));
        ( "read p99.9 > 0",
          every (fun (_, (r : Slo_stream.result)) ->
              r.read_summary.Measure.p999_us > 0.0) );
        ( "zero violations",
          every (fun (_, (r : Slo_stream.result)) -> r.lockdep_violations = 0) );
      ];
  }

(* -- DIURNAL: static locks over the diurnal load cycle ------------------------- *)

(* The static field: the cold-phase favourite (test&set), both flat MCS
   hybrids and all three NUMA composites. No row tops both phase columns —
   test&set collapses at the peak, the composites pay for their layers in
   the trickle — which is the price of the paper's one static choice per
   subsystem. *)
let diurnal_algos =
  [ Lock.Spin { max_backoff_us = 35.0 }; Lock.Mcs_h1; Lock.Mcs_h2;
    Lock.cna; Lock.c_mcs_mcs; Lock.hmcs ]

(* Some row leads (or ties) both the cold and the hot column. *)
let tops_both rows =
  let cold (r : Diurnal.result) = r.cold_throughput_ops_ms in
  let hot (r : Diurnal.result) = r.hot_throughput_ops_ms in
  List.exists
    (fun r -> List.for_all (fun o -> cold r >= cold o && hot r >= hot o) rows)
    rows

let diurnal =
  {
    name = "diurnal";
    title = "DIURNAL - static locks over the diurnal load cycle";
    claim =
      "load ramps cold -> hot -> cold in three equal plateaus: a same-cluster \
       trickle where a test&set lock is unbeatable, then every processor \
       across every cluster where hand-offs go mostly remote and a NUMA \
       composite wins, then the trickle again. No static lock tops both \
       phase columns; H1-MCS, the paper's choice tuned for the uncontended \
       path, trails each phase's leader but collapses in neither. Every row \
       runs under the lockdep checker (viol must be 0)";
    cells = diurnal_algos;
    run =
      (fun _ algo ->
        [ Diurnal.run ~config:{ Diurnal.default_config with Diurnal.algo } () ]);
    print =
      (fun ppf rows ->
        Format.fprintf ppf "%-16s %9s %9s %9s %9s %9s %5s %5s@." "lock"
          "cold1-ops" "hot-ops" "cold2-ops" "cold/ms" "hot/ms" "free" "viol";
        List.iter
          (fun (r : Diurnal.result) ->
            Format.fprintf ppf "%-16s %9d %9d %9d %9.1f %9.1f %5s %5d@."
              r.algo_name r.cold1_ops r.hot_ops r.cold2_ops
              r.cold_throughput_ops_ms r.hot_throughput_ops_ms
              (if r.final_free then "yes" else "NO")
              r.lockdep_violations)
          rows);
    json =
      Some
        (list (fun (r : Diurnal.result) ->
             Json.Obj
               [
                 ("lock", Json.String r.algo_name);
                 ("cold1_ops", Json.Int r.cold1_ops);
                 ("hot_ops", Json.Int r.hot_ops);
                 ("cold2_ops", Json.Int r.cold2_ops);
                 ("cold_throughput_ops_ms", Json.Float r.cold_throughput_ops_ms);
                 ("hot_throughput_ops_ms", Json.Float r.hot_throughput_ops_ms);
                 ("final_free", Json.Bool r.final_free);
                 ("lockdep_violations", Json.Int r.lockdep_violations);
               ]));
    checks =
      [
        ("more than one row", fun rows -> List.length rows > 1);
        ("final_free", every (fun (r : Diurnal.result) -> r.final_free));
        ( "zero violations",
          every (fun (r : Diurnal.result) -> r.lockdep_violations = 0) );
        ("no static row tops both phases", fun rows -> not (tops_both rows));
      ];
  }

(* -- the registry ------------------------------------------------------------------ *)

let all =
  [
    E fig4;
    E uncontended;
    E (fig5 ~name:"FIG5a" ~hold_us:0.0);
    E (fig5 ~name:"FIG5b" ~hold_us:25.0);
    E starvation;
    E fig7a;
    E fig7b;
    E fig7c;
    E fig7d;
    E constants;
    E retries;
    E ablation_granularity;
    E ablation_combining;
    E ablation_cas;
    E ablation_clh;
    E ablation_cached_locks;
    E ablation_spin_then_block;
    E ablation_lockfree;
    E ablation_layout;
    E ablation_lock_family;
    E trylock;
    E classes;
    E cow;
    E fs;
    E fault_matrix;
    E verify;
    E obs;
    E numa_locks;
    E hash_scaling;
    E abort_storm;
    E crash_storm;
    E rw_scaling;
    E slo;
    E diurnal;
  ]

let exported = List.filter (fun (E s) -> s.json <> None) all
let name (E s) = s.name
let find n = List.find_opt (fun e -> name e = n) all
let rows ?(knobs = paper) s = List.concat_map (s.run knobs) s.cells

let failures s rows =
  List.filter_map
    (fun (check, ok) -> if ok rows then None else Some (s.name ^ ": " ^ check))
    s.checks

let report ppf s rows =
  Report.section ppf s.title s.claim;
  s.print ppf rows

let print_all ?knobs ppf entries =
  List.concat_map
    (fun (E s) ->
      let rows = rows ?knobs s in
      report ppf s rows;
      failures s rows)
    entries
