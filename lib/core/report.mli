(** Shared text-report layout. *)

(** [section ppf title claim] prints an experiment's header: a rule, the
    title, the paper's claim, and a closing rule. *)
val section : Format.formatter -> string -> string -> unit
