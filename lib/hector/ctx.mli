(** Per-processor execution context: instruction charging, timed memory
    operations, and the interrupt model (IPIs, Stodolsky soft masking,
    deferred work queue).

    All functions that advance time must run inside a simulated process. *)

open Eventsim

type t

(** An interrupt handler; runs on the target processor's context. *)
and handler = t -> unit

val create : Machine.t -> proc:int -> Rng.t -> t

val machine : t -> Machine.t
val proc : t -> int
val rng : t -> Rng.t
val engine : t -> Engine.t
val config : t -> Config.t
val now : t -> int

val irqs_taken : t -> int
val irqs_deferred : t -> int
val soft_masked : t -> bool

(** True while this context is running an interrupt handler (an RPC service
    or deferred-work record drained by [poll]). Used by the verification
    layer to flag blocking waits from interrupt context. *)
val in_interrupt : t -> bool

(** Pure compute for [cycles]. *)
val work : t -> int -> unit

(** Charge [reg] register-to-register and [br] branch instructions; cycles
    following a fetch&store overlap with its store phase and are free up to
    the configured overlap credit. *)
val instr : t -> ?reg:int -> ?br:int -> unit -> unit

(** Take all pending interrupts (entry cost, soft-mask check, handler or
    deferral, exit cost). Called implicitly by every memory operation. *)
val poll : t -> unit

val read : t -> Cell.t -> int

(** [spin_read t cell ~until] spins locally: [read t cell], a one-branch
    [instr], then the test [until v], repeated until the test holds;
    returns the value that passed. Exactly the events, timestamps and
    interrupt boundaries of the written-out loop, but the quiet iterations
    run as engine events instead of fiber round trips. [until] may read the
    clock (a deadline-bounded spin). *)
val spin_read : t -> Cell.t -> until:(int -> bool) -> int

val write : t -> Cell.t -> int -> unit

(** Atomic swap; returns the previous value and opens the overlap window. *)
val fetch_and_store : t -> Cell.t -> int -> int

val test_and_set : t -> Cell.t -> int
val compare_and_swap : t -> Cell.t -> expect:int -> set:int -> bool

(** Set the per-processor soft-mask flag (top of the lock hierarchy). *)
val set_soft_mask : t -> unit

(** Clear the flag and run all deferred work records. *)
val clear_soft_mask : t -> unit

val with_soft_mask : t -> (unit -> 'a) -> 'a

(** Deliver an interrupt to (another) processor, waking it if idle. *)
val post_ipi : t -> handler -> unit

(** Pause while continuing to take interrupts every [granule] cycles: for
    backoffs and polling delays, where the processor is waiting rather than
    computing. *)
val interruptible_pause : ?granule:int -> t -> int -> unit

(** Fault-injection point: consult the machine's installed fault plan
    ({!Machine.set_fault_plan}) and, if a crash is drawn, fail-stop this
    processor on the spot (the fiber parks at its next operation
    boundary); else if
    a stall is drawn for [site], spend it as an interruptible pause (a
    preempted holder's processor still serves interrupts). Free when no
    plan is installed; makes no crash draw when [crash_rate = 0.0]. *)
val fault_point : t -> site:int -> unit

(** Busy-wait for an ivar while continuing to take interrupts — how a
    processor waits for an RPC reply in an exception-based kernel. *)
val await : ?poll_interval:int -> t -> 'a Ivar.t -> 'a

(** {!await} with a deadline: [None] once [timeout] cycles pass without a
    value — the caller can resend a lost request. *)
val await_timeout : ?poll_interval:int -> t -> timeout:int -> 'a Ivar.t -> 'a option

(** Idle service loop for processors without their own workload: sleeps
    until an IPI arrives, serves it, repeats. Never returns. *)
val idle_loop : t -> unit
