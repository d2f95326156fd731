(** TSV emitters for the figure series plus a gnuplot script —
    [bench/main.exe --dat DIR]. Each function returns the written path. *)

(** [figure dir ~name value] writes [name.dat] from a FIG5/FIG7 export
    value ({!Bench_json}): the x column, then one mean-latency column per
    algorithm. *)
val figure : string -> name:string -> Json.t -> string

val gnuplot_script : string -> string

(** Run every figure and write its data (and the gnuplot script) into the
    directory, creating it if needed. Returns the written paths. *)
val write_all : string -> string list
