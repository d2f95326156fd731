(** Simulated processes: effect-based coroutines over {!Engine}.

    A process is an ordinary function; inside it, the functions below may be
    used to let virtual time pass. They must only be called from within a
    process started by [spawn] (performing an effect with no handler raises
    [Effect.Unhandled]), and the timed waits wake the process on the engine
    it was spawned on: pass that engine. *)

(** Low-level suspension: [suspend reg] captures the current continuation as
    a resume thunk and passes it to [reg]. The process stays suspended until
    the thunk is invoked (exactly once). *)
val suspend : ((unit -> unit) -> unit) -> unit

(** Suspend until the given absolute time. *)
val wait_until : Engine.t -> int -> unit

(** Suspend for a relative number of cycles (0 is a no-op). *)
val pause : Engine.t -> int -> unit

(** Re-schedule at the current time, letting same-time events interleave. *)
val yield : Engine.t -> unit

(** Start a process at the current virtual time. *)
val spawn : Engine.t -> (unit -> unit) -> unit

(** Start a process at an absolute time. *)
val spawn_at : Engine.t -> at:int -> (unit -> unit) -> unit
