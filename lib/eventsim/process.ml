(* Simulated processes as effect-based coroutines.

   A process is a plain OCaml function run under a deep effect handler. When
   it needs to let virtual time pass, it performs an effect and the handler
   captures the continuation:

   - [Wake_at time] is the timed wait behind [wait_until], [pause] and
     [yield]: the handler schedules the continuation at [time]. Each fiber
     allocates its handler for this effect once, so a timed wait costs the
     effect, the continuation and one resume thunk;
   - [Suspend reg] is the general case (ivars, idle loops, parking): the
     handler wraps the continuation in a resume thunk and hands it to
     [reg], which decides when (or whether) to schedule it. *)

open Effect
open Effect.Deep

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Wake_at : int -> unit Effect.t

let suspend reg = perform (Suspend reg)

let wait_until eng time =
  if time < Engine.now eng then
    invalid_arg "Process.wait_until: time is in the past";
  perform (Wake_at time)

let pause eng cycles =
  if cycles < 0 then invalid_arg "Process.pause: negative duration";
  if cycles > 0 then perform (Wake_at (Engine.now eng + cycles))

let yield eng = perform (Wake_at (Engine.now eng))

let run_fiber eng f =
  let wake = ref 0 in
  let on_wake =
    Some
      (fun (k : (unit, unit) continuation) ->
        Engine.schedule eng ~at:!wake (fun () -> continue k ()))
  in
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type c) (eff : c Effect.t) :
             ((c, unit) continuation -> unit) option ->
          match eff with
          | Wake_at at ->
            wake := at;
            on_wake
          | Suspend reg ->
            Some
              (fun (k : (c, unit) continuation) ->
                reg (fun () -> continue k ()))
          | _ -> None);
    }

let spawn_at eng ~at f = Engine.schedule eng ~at (fun () -> run_fiber eng f)

let spawn eng f = spawn_at eng ~at:(Engine.now eng) f
