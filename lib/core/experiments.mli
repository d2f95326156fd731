(** The experiment registry: one entry per table/figure of the paper's
    evaluation, plus the ablations and extensions in DESIGN.md. The
    benchmark harness ([bench/main.exe]), the CLI ([hurricane_sim figure]),
    the JSON export ({!Bench_json}) and the tests all read {!all}; adding an
    experiment is adding one entry. *)

open Locks
open Workloads

(** Reduced sweeps for tests and quick runs; [None] keeps the paper's
    setting. [procs] is FIG5's and FIG7a/b's processor sweep, [sizes]
    FIG7c/d's cluster sizes, [iters] FIG7a/c's faults per processor and
    [rounds] FIG7b/d's shared-fault rounds. Other experiments ignore them. *)
type knobs = {
  procs : int list option;
  sizes : int list option;
  iters : int option;
  rounds : int option;
}

(** Every knob [None]. *)
val paper : knobs

(** One experiment, with cell type ['c] and row type ['r]. *)
type ('c, 'r) spec = {
  name : string;  (** the [bench]/[figure] name and the JSON key *)
  title : string;
  claim : string;  (** what the paper reports, printed under the title *)
  cells : 'c list;
      (** the outermost sweep axis: each cell is an independent simulation
          (own Engine, Machine and seeded Rng), so cells may run in
          parallel *)
  run : knobs -> 'c -> 'r list;
      (** one cell's rows; concatenating the cells' rows in order gives
          the sequential sweep *)
  print : Format.formatter -> 'r list -> unit;  (** the report body *)
  json : ('r list -> Json.t) option;
      (** [None]: not part of [BENCH_results.json] *)
  checks : (string * ('r list -> bool)) list;
      (** named acceptance predicates over the rows *)
}

type t = E : ('c, 'r) spec -> t

(** Every experiment, in report order. The exported ones (those with a
    [json] encoder) appear in [BENCH_results.json] in this order. *)
val all : t list

(** The entries with a JSON encoder, in {!all} order. *)
val exported : t list

val name : t -> string
val find : string -> t option

(** Run every cell in order and concatenate the rows. *)
val rows : ?knobs:knobs -> ('c, 'r) spec -> 'r list

(** ["<experiment>: <check>"] for every check the rows fail. *)
val failures : ('c, 'r) spec -> 'r list -> string list

(** The section header (title and claim) followed by the body. *)
val report : Format.formatter -> ('c, 'r) spec -> 'r list -> unit

(** Run and {!report} each entry in turn; return every {!failures}. *)
val print_all : ?knobs:knobs -> Format.formatter -> t list -> string list

(** {1 Sweep axes read by the host-cost benchmark} *)

val paper_cluster_sizes : int list

(** Figure 7's kernel-lock algorithms (both modified-MCS variants and the
    35 µs spin lock). *)
val fig7_algos : Lock.algo list

(** NUMA-LOCKS' and ABORT-STORM's algorithms: flat H2-MCS plus the
    composites. *)
val numa_algos : Lock.algo list

(** SLO's offered rates, requests per virtual ms. *)
val slo_rates : float list

(** {1 Entries the tests read row by row} *)

type fig4_row = {
  algo : Instr_model.algo;
  ours : Instr_model.counts;
  paper : Instr_model.counts;
  predicted_us : float;
}

val fig4 : (Instr_model.algo, fig4_row) spec

(** OBS: the contention profile of a dosed fault storm. *)
type obs_result = { obs_rows : Obs.row list; obs_storm : Fault_storm.result }

val obs : (unit, obs_result) spec

(** HASH-SCALING: one cell per processor count; a row is
    (p, read ratio, result). *)
val hash_scaling : (int, int * float * Hash_scaling.result) spec

(** ABL4: a row is (machine, algorithm, contended mean µs). *)
val ablation_clh : (string * Hector.Config.t, string * Lock.algo * float) spec

(** ABL5: a row is (machine, algorithm, pair µs, pair cycles). *)
val ablation_cached_locks :
  (string * Hector.Config.t, string * Lock.algo * float * float) spec

(** ABL9: a row is (algorithm, uncontended µs, contended p = 12 µs, words
    per lock at 16 processors). *)
val ablation_lock_family : (Lock.algo, Lock.algo * float * float * int) spec

val abort_storm : (Lock.algo, Abort_storm.result) spec
val crash_storm : (Lock.algo, Crash_storm.result) spec

(** RW-SCALING: one cell per read-path style. *)
val rw_scaling : (Rw_scaling.style, Rw_scaling.result) spec

(** SLO: one cell per offered rate; a row is (cell config, result). *)
val slo : (float, Slo_stream.config * Slo_stream.result) spec

(** DIURNAL: one cell per static lock. *)
val diurnal : (Lock.algo, Diurnal.result) spec
