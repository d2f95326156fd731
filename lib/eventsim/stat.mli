(** Exact sample statistics for simulated latencies (cycles).

    All samples are retained, so percentiles and tail fractions are exact;
    this is needed for the paper's starvation measurement (fraction of lock
    acquisitions exceeding 2 ms). *)

type t

val create : string -> t

val name : t -> string

val add : t -> int -> unit

val count : t -> int

val mean : t -> float

val min_value : t -> int

val max_value : t -> int

(** Nearest-rank percentile, [q] clamped to [0, 1]. *)
val percentile : t -> float -> int

val median : t -> int

(** Fraction of samples strictly greater than [threshold] cycles. *)
val fraction_above : t -> int -> float

(** Sample standard deviation. *)
val stddev : t -> float

val clear : t -> unit

val to_list : t -> int list
