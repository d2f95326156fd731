(** Discrete-event engine: virtual clock + ordered queue of thunks.

    Time is in integer machine cycles. All simulated concurrency is
    cooperative: a thunk runs to completion at its timestamp and may schedule
    further thunks. Events run in (time, schedule order): same-time events
    run first-scheduled first, which makes every run deterministic. Events
    due within 256 cycles wait in a timing wheel, later ones in a binary
    heap; the split does not change the order. *)

(** Raised when the event budget is exhausted, which in practice means the
    simulation livelocked (e.g. processors spinning forever on a lock that is
    never released). *)
exception Deadlock of string

type t

(** [create ()] makes an engine at time 0. [max_events] bounds the total
    number of events executed, as a livelock safety valve. *)
val create : ?max_events:int -> unit -> t

(** Current virtual time, in cycles. *)
val now : t -> int

(** Number of events executed so far. *)
val events_executed : t -> int

(** [schedule t ~at f] runs [f] when the clock reaches [at].
    @raise Invalid_argument if [at] is in the past. *)
val schedule : t -> at:int -> (unit -> unit) -> unit

(** [schedule_after t ~delay f] = [schedule t ~at:(now t + delay) f]. *)
val schedule_after : t -> delay:int -> (unit -> unit) -> unit

(** Number of events still queued. *)
val pending : t -> int

(** Execute the single earliest event. Returns [false] if none was queued. *)
val step : t -> bool

(** Run until the queue is empty, or past [until] if given (events strictly
    later than [until] stay queued; the clock is advanced to [until] if the
    queue drains early). *)
val run : ?until:int -> t -> unit
