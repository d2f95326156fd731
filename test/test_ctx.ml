(* Tests for the per-processor context: instruction charging, the swap
   overlap window, interrupts, and soft masking. *)

open Eventsim
open Hector

let make ?(cfg = Config.hector) () =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (100 + p)) in
  (eng, machine, ctx)

let simulate eng f =
  Process.spawn eng f;
  Engine.run eng

let test_instr_costs () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  simulate eng (fun () ->
      let t0 = Machine.now machine in
      Ctx.instr c ~reg:3 ~br:2 ();
      (* 3 * 1 + 2 * 2 = 7 cycles, no overlap credit pending. *)
      Alcotest.(check int) "cycles" 7 (Machine.now machine - t0))

let test_overlap_after_atomic () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      ignore (Ctx.fetch_and_store c cell 1);
      let t0 = Machine.now machine in
      (* 5 cycles of overlap credit: the first 5 instruction cycles are
         hidden behind the swap's store phase. *)
      Ctx.instr c ~reg:3 ~br:1 ();
      Alcotest.(check int) "5 cycles hidden" 0 (Machine.now machine - t0);
      let t1 = Machine.now machine in
      Ctx.instr c ~reg:2 ();
      Alcotest.(check int) "credit exhausted" 2 (Machine.now machine - t1))

let test_overlap_cleared_by_memory_op () =
  let eng, machine, ctx = make () in
  let c = ctx 0 in
  let cell = Machine.alloc machine ~home:0 0 in
  simulate eng (fun () ->
      ignore (Ctx.fetch_and_store c cell 1);
      ignore (Ctx.read c cell);
      let t0 = Machine.now machine in
      Ctx.instr c ~reg:2 ();
      Alcotest.(check int) "no credit after load" 2 (Machine.now machine - t0))

let test_ipi_delivery () =
  let eng, _, ctx = make () in
  let target = ctx 1 in
  let served = ref false in
  Process.spawn eng (fun () -> Ctx.idle_loop target);
  Process.spawn eng (fun () ->
      Ctx.post_ipi target (fun _ -> served := true);
      Process.pause eng 1000);
  Engine.run eng;
  Alcotest.(check bool) "handler ran" true !served;
  Alcotest.(check int) "counted" 1 (Ctx.irqs_taken target)

let test_soft_mask_defers () =
  let eng, machine, ctx = make () in
  let target = ctx 1 in
  let cell = Machine.alloc machine ~home:1 0 in
  let served_at = ref (-1) in
  let unmask_at = ref (-1) in
  Process.spawn eng (fun () ->
      Ctx.set_soft_mask target;
      (* Memory ops poll interrupts; the mask must defer the handler. *)
      for _ = 1 to 20 do
        ignore (Ctx.read target cell)
      done;
      unmask_at := Machine.now machine;
      Ctx.clear_soft_mask target;
      Process.pause eng 100);
  Process.spawn eng (fun () ->
      Process.pause eng 30;
      Ctx.post_ipi target (fun tctx -> served_at := Ctx.now tctx));
  Engine.run eng;
  Alcotest.(check bool) "deferred until unmask" true (!served_at >= !unmask_at);
  Alcotest.(check int) "counted as deferred" 1 (Ctx.irqs_deferred target)

let test_unmasked_interrupt_taken_at_op_boundary () =
  let eng, machine, ctx = make () in
  let target = ctx 1 in
  let cell = Machine.alloc machine ~home:1 0 in
  let served_at = ref (-1) in
  Process.spawn eng (fun () ->
      for _ = 1 to 50 do
        ignore (Ctx.read target cell)
      done);
  Process.spawn eng (fun () ->
      Process.pause eng 55;
      Ctx.post_ipi target (fun tctx -> served_at := Ctx.now tctx));
  Engine.run eng;
  Alcotest.(check bool) "served promptly" true
    (!served_at >= 55 && !served_at < 300);
  ignore machine

let test_no_nested_interrupts () =
  let eng, machine, ctx = make () in
  let target = ctx 1 in
  let order = ref [] in
  Process.spawn eng (fun () -> Ctx.idle_loop target);
  Process.spawn eng (fun () ->
      Process.pause eng 10;
      Ctx.post_ipi target (fun tctx ->
          order := "first-start" :: !order;
          (* While this handler runs, a second IPI arrives; it must not
             nest. The handler's own memory ops poll, but in_interrupt
             blocks re-entry. *)
          ignore (Ctx.read tctx (Machine.alloc machine ~home:1 0));
          Ctx.work tctx 200;
          order := "first-end" :: !order);
      Process.pause eng 20;
      Ctx.post_ipi target (fun _ -> order := "second" :: !order));
  Engine.run eng;
  Alcotest.(check (list string))
    "second handler ran after the first"
    [ "first-start"; "first-end"; "second" ]
    (List.rev !order)

let test_await_serves_interrupts () =
  let eng, _, ctx = make () in
  let waiter = ctx 0 in
  let iv = Ivar.create () in
  let served = ref false in
  let got = ref 0 in
  Process.spawn eng (fun () -> got := Ctx.await waiter iv);
  Process.spawn eng (fun () ->
      Process.pause eng 50;
      (* Interrupt the waiting processor... *)
      Ctx.post_ipi waiter (fun _ -> served := true);
      Process.pause eng 200;
      Ivar.fill eng iv 9);
  Engine.run eng;
  Alcotest.(check bool) "interrupt served while awaiting" true !served;
  Alcotest.(check int) "reply received" 9 !got

let test_with_soft_mask_restores_on_exception () =
  let eng, _, ctx = make () in
  let c = ctx 0 in
  simulate eng (fun () ->
      (try Ctx.with_soft_mask c (fun () -> failwith "boom") with
      | Failure _ -> ());
      Alcotest.(check bool) "mask cleared" false (Ctx.soft_masked c))

(* -- host-side wait loops: exact event accounting -------------------------- *)

(* Spins, RPC awaits and interruptible pauses run their quiet iterations as
   engine events instead of fiber round trips, and must not change a single
   event. Each scenario below reports the engine's executed-event count and
   final clock, the machine's read count, every context's taken and
   deferred interrupt counts and the scenario's own results. The expected
   values are those of the written-out loops, which suspend the fiber on
   every pause; any drift in an event, a timestamp or a counter shows up
   here. *)

type outcome = {
  events : int;
  final : int;
  reads : int;
  irqs : (int * int) list; (* (taken, deferred) per context *)
  results : int list;
}

let outcome eng machine ctxs results =
  {
    events = Engine.events_executed eng;
    final = Engine.now eng;
    reads = Machine.reads machine;
    irqs = List.map (fun c -> (Ctx.irqs_taken c, Ctx.irqs_deferred c)) ctxs;
    results;
  }

let check_outcome expected got =
  Alcotest.(check int) "events executed" expected.events got.events;
  Alcotest.(check int) "final clock" expected.final got.final;
  Alcotest.(check int) "machine reads" expected.reads got.reads;
  Alcotest.(check (list (pair int int)))
    "interrupts taken, deferred" expected.irqs got.irqs;
  Alcotest.(check (list int)) "results" expected.results got.results

(* Processors [procs] run [iters] acquire/hold/release rounds on [algo];
   every [timed]-th round uses the timed face with a short budget. A
   separate sender posts an interrupt to each contender in turn, so spins
   are cut by handlers. Results: the acquisition order folded into one
   number, the timed failures, the lock's acquisition count. *)
let contention ~cfg ~algo ~procs ~iters ~timed ~sender =
  let eng = Engine.create () in
  let machine = Machine.create eng cfg in
  let lock = Locks.Lock.make machine algo in
  let ctxs =
    List.map (fun p -> Ctx.create machine ~proc:p (Rng.create (7 + p))) procs
  in
  let order = ref 0 and failures = ref 0 and finished = ref 0 in
  List.iter
    (fun c ->
      Process.spawn eng (fun () ->
          let r = Ctx.rng c in
          for i = 1 to iters do
            let got =
              if timed > 0 && i mod timed = 0 then
                lock.Locks.Lock.try_acquire_for c ~deadline:(Ctx.now c + 150)
              else (lock.Locks.Lock.acquire c; true)
            in
            if got then begin
              order := ((!order * 31) + Ctx.proc c + 1) land 0xFFFFFFF;
              Ctx.work c (20 + Rng.int r 40);
              lock.Locks.Lock.release c
            end
            else incr failures;
            Ctx.work c (1 + Rng.int r 60)
          done;
          incr finished))
    ctxs;
  let s = Ctx.create machine ~proc:sender (Rng.create 3) in
  Process.spawn eng (fun () ->
      List.iteri
        (fun i c ->
          Process.pause eng (97 + (13 * i));
          Ctx.post_ipi c (fun h -> Ctx.work h 15))
        (ctxs @ ctxs @ ctxs));
  Engine.run eng;
  Alcotest.(check int) "every contender finished" (List.length procs) !finished;
  outcome eng machine (ctxs @ [ s ])
    [ !order; !failures; lock.Locks.Lock.acquisitions () ]

let scenario_h2_chain () =
  contention ~cfg:Config.hector ~algo:Locks.Lock.Mcs_h2 ~procs:[ 0; 1; 5; 9 ]
    ~iters:6 ~timed:0 ~sender:12

let scenario_hmcs () =
  contention ~cfg:Config.hector ~algo:Locks.Lock.hmcs
    ~procs:[ 0; 1; 4; 5; 8; 9; 12; 13 ] ~iters:5 ~timed:3 ~sender:15

let scenario_cna () =
  contention ~cfg:Config.numachine ~algo:Locks.Lock.cna
    ~procs:[ 0; 1; 4; 5; 8; 9; 12; 13 ] ~iters:5 ~timed:3 ~sender:15

(* An await whose interrupts land exactly on poll boundaries (every 16
   cycles from [t0], re-based after a handler): the first is posted by an
   event queued before the poll at [t0 + 48] and is taken by it; the
   second is posted at [t0 + 179] by an event queued after that poll, so
   the next poll takes it, and its handler fills the reply. Before the
   await the same processor defers an interrupt under its soft mask and
   drains it on clearing. *)
let scenario_await_boundary () =
  let eng, machine, ctx = make () in
  let a = ctx 0 and b = ctx 4 in
  let cell = Machine.alloc machine ~home:0 0 in
  let iv = Ivar.create () in
  let got = ref 0 and returned = ref 0 in
  Process.spawn eng (fun () ->
      Ctx.set_soft_mask a;
      for _ = 1 to 6 do
        ignore (Ctx.read a cell)
      done;
      Ctx.clear_soft_mask a;
      let t0 = Ctx.now a in
      Engine.schedule eng ~at:(t0 + 48) (fun () ->
          Ctx.post_ipi a (fun h -> Ctx.work h 7));
      Engine.schedule eng ~at:(t0 + 170) (fun () ->
          Engine.schedule eng ~at:(t0 + 179) (fun () ->
              Ctx.post_ipi a (fun h ->
                  Ctx.work h 3;
                  Ivar.fill eng iv 42)));
      got := Ctx.await a iv;
      returned := Ctx.now a - t0);
  Process.spawn eng (fun () ->
      Ctx.work b 20;
      Ctx.post_ipi a (fun h -> Ctx.work h 5));
  Engine.run eng;
  outcome eng machine [ a; b ] [ !got; !returned ]

(* An await_timeout that expires, with an interrupt served mid-wait. *)
let scenario_await_timeout () =
  let eng, machine, ctx = make () in
  let a = ctx 0 in
  let iv : int Ivar.t = Ivar.create () in
  let got = ref 0 and returned = ref 0 in
  Process.spawn eng (fun () ->
      Ctx.work a 3;
      let t0 = Ctx.now a in
      Engine.schedule eng ~at:(t0 + 57) (fun () ->
          Ctx.post_ipi a (fun h -> Ctx.work h 11));
      (got :=
         match Ctx.await_timeout a ~timeout:200 iv with
         | Some v -> v
         | None -> -1);
      returned := Ctx.now a - t0);
  Engine.run eng;
  outcome eng machine [ a ] [ !got; !returned ]

(* An interruptible pause cut mid-granule by two interrupts. *)
let scenario_pause_interrupted () =
  let eng, machine, ctx = make () in
  let a = ctx 0 in
  let returned = ref 0 in
  Process.spawn eng (fun () ->
      Ctx.work a 5;
      let t0 = Ctx.now a in
      Engine.schedule eng ~at:(t0 + 50) (fun () ->
          Ctx.post_ipi a (fun h -> Ctx.work h 20));
      Engine.schedule eng ~at:(t0 + 61) (fun () ->
          Ctx.post_ipi a (fun h -> Ctx.work h 9));
      Ctx.interruptible_pause ~granule:32 a 500;
      returned := Ctx.now a - t0);
  Engine.run eng;
  outcome eng machine [ a ] [ !returned ]

(* Recoverable H2-MCS rounds on four processors; processor 2 is killed
   while it spins and restarts 3000 cycles later with a fresh fiber. *)
let scenario_kill_mid_spin () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let lock = Locks.Lock.make machine Locks.Lock.Mcs_h2 in
  let ctxs =
    List.init 4 (fun p -> Ctx.create machine ~proc:p (Rng.create (20 + p)))
  in
  let wins = ref 0 in
  let rounds c n =
    let r = Ctx.rng c in
    for _ = 1 to n do
      Locks.Lock.acquire_recoverable ~check_period:500 lock c;
      incr wins;
      Ctx.work c (30 + Rng.int r 50);
      lock.Locks.Lock.release c;
      Ctx.work c (1 + Rng.int r 40)
    done
  in
  List.iter (fun c -> Process.spawn eng (fun () -> rounds c 8)) ctxs;
  Machine.set_restart_handler machine (fun p ->
      Process.spawn eng (fun () -> rounds (List.nth ctxs p) 2));
  Engine.schedule eng ~at:700 (fun () ->
      Machine.kill_proc ~restart_after:3000 machine 2);
  Engine.run eng;
  outcome eng machine ctxs
    [ !wins; lock.Locks.Lock.acquisitions (); Machine.crashes machine;
      Machine.restarts machine; Bool.to_int (lock.Locks.Lock.is_free ()) ]

let exact name scenario expected =
  Alcotest.test_case ("exact: " ^ name) `Quick (fun () ->
      check_outcome expected (scenario ()))

let exactness_cases =
  [
    exact "4-processor H2-MCS hand-off chain" scenario_h2_chain
      { events = 1652; final = 4701; reads = 675;
        irqs = [ (3, 0); (3, 0); (3, 0); (3, 0); (0, 0) ];
        results = [ 243423634; 0; 24 ] };
    exact "HMCS contention" scenario_hmcs
      { events = 3691; final = 5916; reads = 1560;
        irqs =
          [ (3, 0); (3, 0); (2, 0); (3, 0); (2, 0); (2, 0); (2, 0); (2, 0);
            (0, 0) ];
        results = [ 265037525; 7; 33 ] };
    exact "CNA contention" scenario_cna
      { events = 53503; final = 14345; reads = 26427;
        irqs =
          [ (3, 0); (3, 0); (3, 0); (3, 0); (3, 0); (3, 0); (3, 0); (3, 0);
            (0, 0) ];
        results = [ 157719500; 8; 32 ] };
    exact "await with interrupts on poll boundaries" scenario_await_boundary
      { events = 34; final = 459; reads = 6; irqs = [ (3, 1); (0, 0) ];
        results = [ 42; 290 ] };
    exact "await_timeout expiry" scenario_await_timeout
      { events = 14; final = 218; reads = 0; irqs = [ (1, 0) ];
        results = [ -1; 215 ] };
    exact "interruptible_pause cut mid-granule" scenario_pause_interrupted
      { events = 21; final = 505; reads = 0; irqs = [ (2, 0) ];
        results = [ 500 ] };
    exact "kill mid-spin with fail-restart" scenario_kill_mid_spin
      { events = 7239; final = 11140; reads = 3298;
        irqs = [ (0, 0); (0, 0); (0, 0); (0, 0) ];
        results = [ 26; 26; 1; 1; 1 ] };
  ]

let suite =
  [
    Alcotest.test_case "instruction cycle charging" `Quick test_instr_costs;
    Alcotest.test_case "swap overlap window" `Quick test_overlap_after_atomic;
    Alcotest.test_case "memory op closes overlap window" `Quick
      test_overlap_cleared_by_memory_op;
    Alcotest.test_case "IPI wakes an idle processor" `Quick test_ipi_delivery;
    Alcotest.test_case "soft mask defers handlers" `Quick test_soft_mask_defers;
    Alcotest.test_case "unmasked IPI taken at op boundary" `Quick
      test_unmasked_interrupt_taken_at_op_boundary;
    Alcotest.test_case "interrupts do not nest" `Quick test_no_nested_interrupts;
    Alcotest.test_case "await keeps serving interrupts" `Quick
      test_await_serves_interrupts;
    Alcotest.test_case "with_soft_mask restores on exception" `Quick
      test_with_soft_mask_restores_on_exception;
  ]
  @ exactness_cases
