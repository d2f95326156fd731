(** Lock-free single-word operations (Section 5.3): CAS retry loops for the
    "leaf" data TORNADO plans to strip of locks. Requires a CAS-capable
    machine configuration. *)

open Hector

(** A shared counter updated by atomic fetch-and-add (CAS retry). *)
type counter

val make_counter : Machine.t -> home:int -> int -> counter

val counter_value : counter -> int
val counter_cell : counter -> Cell.t
val counter_cas_failures : counter -> int

val counter_incr : counter -> Ctx.t -> int

(** Atomic bit updates on any status word; both return the previous
    value. *)

val set_bits : Cell.t -> Ctx.t -> int -> int
val clear_bits : Cell.t -> Ctx.t -> int -> int

(** Treiber stack whose head word is the only simulated memory (the
    single-word-update restriction of Section 5.3); nodes are model-level. *)
type 'a stack

val make_stack : Machine.t -> home:int -> 'a stack

val push : 'a stack -> Ctx.t -> 'a -> unit
val pop : 'a stack -> Ctx.t -> 'a option

(** Walk the chain (one timed read for the head; the chain itself is
    model-level). *)
val stack_size : 'a stack -> Ctx.t -> int
