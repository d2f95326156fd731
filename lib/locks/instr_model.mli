(** Static instruction model regenerating Figure 4: instruction counts of an
    uncontended lock/unlock pair per algorithm, derived from the Figure-3
    code paths the implementations follow. *)

open Hector

type instr = Atomic | Mem | Reg | Br

type counts = { atomic : int; mem : int; reg : int; br : int }

type algo = Mcs_original | Mcs_h1 | Mcs_h2 | Spin

val algo_name : algo -> string

(** The four rows of Figure 4, in paper order. *)
val all : algo list

val acquire_path : algo -> instr list
val release_path : algo -> instr list
val pair_path : algo -> instr list

(** Counts for a full lock/unlock pair. *)
val counts : algo -> counts

(** The table as published, for cross-checking. *)
val paper_counts : algo -> counts

(** Predicted uncontended pair latency (lock word and node local), with the
    post-swap overlap discount. *)
val predicted_cycles : Config.t -> algo -> int

val predicted_us : Config.t -> algo -> float
