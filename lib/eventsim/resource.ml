(* FIFO server resource.

   A resource models a component that serves one request at a time (a memory
   module, a station bus, the ring). A request arriving at [now] begins
   service at [max now next_free] and holds the resource for [service]
   cycles. Because the engine executes events in time order and requests
   claim their slot at arrival, slot assignment is FIFO — exactly the
   queueing behaviour that produces the paper's second-order contention
   effects.

   The resource also keeps utilisation counters so experiments can report
   where time was lost. *)

type t = {
  mutable next_free : int;
  mutable busy_cycles : int;
  mutable queued_cycles : int; (* total time requests spent waiting *)
  mutable n_requests : int;
}

let create () =
  { next_free = 0; busy_cycles = 0; queued_cycles = 0; n_requests = 0 }

let reserve t ~now ~service =
  if service < 0 then invalid_arg "Resource.reserve: negative service";
  let start = if now > t.next_free then now else t.next_free in
  let finish = start + service in
  t.next_free <- finish;
  t.busy_cycles <- t.busy_cycles + service;
  t.queued_cycles <- t.queued_cycles + (start - now);
  t.n_requests <- t.n_requests + 1;
  finish

let next_free t = t.next_free

let busy_cycles t = t.busy_cycles
let queued_cycles t = t.queued_cycles
let n_requests t = t.n_requests

let utilization t ~horizon =
  if horizon <= 0 then 0.0
  else float_of_int t.busy_cycles /. float_of_int horizon
