(* Tests for the discrete-event engine. *)

open Eventsim

let test_time_starts_at_zero () =
  let eng = Engine.create () in
  Alcotest.(check int) "now" 0 (Engine.now eng)

let test_runs_in_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:30 (fun () -> log := 30 :: !log);
  Engine.schedule eng ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule eng ~at:20 (fun () -> log := 20 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "order" [ 10; 20; 30 ] (List.rev !log);
  Alcotest.(check int) "final time" 30 (Engine.now eng)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 0 to 4 do
    Engine.schedule eng ~at:7 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 0; 1; 2; 3; 4 ] (List.rev !log)

let test_schedule_in_past_rejected () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:10 (fun () -> ());
  Engine.run eng;
  Alcotest.check_raises "past" (Invalid_argument
    "Engine.schedule: at=5 is in the past (now=10)")
    (fun () -> Engine.schedule eng ~at:5 (fun () -> ()))

let test_events_can_schedule_events () =
  let eng = Engine.create () in
  let hits = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule_after eng ~delay:5 (fun () ->
          incr hits;
          chain (n - 1))
  in
  chain 10;
  Engine.run eng;
  Alcotest.(check int) "all ran" 10 !hits;
  Alcotest.(check int) "time advanced" 50 (Engine.now eng)

let test_run_until () =
  let eng = Engine.create () in
  let hits = ref 0 in
  List.iter
    (fun t -> Engine.schedule eng ~at:t (fun () -> incr hits))
    [ 10; 20; 30; 40 ];
  Engine.run ~until:25 eng;
  Alcotest.(check int) "only early events" 2 !hits;
  Alcotest.(check int) "pending" 2 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "rest ran" 4 !hits

let test_run_until_advances_clock_when_empty () =
  let eng = Engine.create () in
  Engine.run ~until:100 eng;
  Alcotest.(check int) "clock moved" 100 (Engine.now eng)

let test_step () =
  let eng = Engine.create () in
  Alcotest.(check bool) "nothing to step" false (Engine.step eng);
  Engine.schedule eng ~at:3 (fun () -> ());
  Alcotest.(check bool) "stepped" true (Engine.step eng);
  Alcotest.(check int) "executed" 1 (Engine.events_executed eng)

let test_event_budget () =
  let eng = Engine.create ~max_events:100 () in
  let rec forever () = Engine.schedule_after eng ~delay:1 forever in
  forever ();
  Alcotest.check_raises "budget"
    (Engine.Deadlock "event budget exhausted (100 events executed)")
    (fun () -> Engine.run eng);
  Alcotest.(check int) "exactly the budget ran" 100
    (Engine.events_executed eng)

let test_negative_delay_rejected () =
  let eng = Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      Engine.schedule_after eng ~delay:(-1) (fun () -> ()))

(* The engine keeps events due fewer than [wheel] cycles ahead in its timing
   wheel and later ones in its heap; these cases straddle that span. *)
let wheel = 256

let test_far_before_near_at_equal_time () =
  let eng = Engine.create () in
  let log = ref [] in
  let at = 1000 in
  let note s () = log := (s, Engine.now eng) :: !log in
  (* Scheduled at 0, 1000 cycles ahead: far. *)
  Engine.schedule eng ~at (note "far1");
  Engine.schedule eng ~at (note "far2");
  (* Scheduled once the clock is within the span of [at]: near. *)
  Engine.schedule eng ~at:(at - wheel + 1) (fun () ->
      Engine.schedule eng ~at (note "near1"));
  Engine.schedule eng ~at:(at - 1) (fun () ->
      Engine.schedule eng ~at (note "near2"));
  (* Scheduled exactly [wheel] ahead: still far, and after far1/far2. The
     delay-0 event beside it must not share its time. *)
  Engine.schedule eng ~at:(at - wheel) (fun () ->
      Engine.schedule eng ~at (note "far3");
      Engine.schedule_after eng ~delay:0 (note "now"));
  Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "far events first, each level in schedule order"
    [
      ("now", at - wheel);
      ("far1", at);
      ("far2", at);
      ("far3", at);
      ("near1", at);
      ("near2", at);
    ]
    (List.rev !log)

let test_delay_zero_runs_after_queued () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s () = log := s :: !log in
  Engine.schedule eng ~at:500 (fun () ->
      note "far" ();
      Engine.schedule_after eng ~delay:0 (note "far+0"));
  Engine.schedule eng ~at:400 (fun () ->
      Engine.schedule eng ~at:500 (fun () ->
          note "a" ();
          Engine.schedule_after eng ~delay:0 (fun () ->
              note "a+0" ();
              Engine.schedule_after eng ~delay:0 (note "a+0+0")));
      Engine.schedule eng ~at:500 (note "b"));
  Engine.run eng;
  Alcotest.(check (list string))
    "delay-0 events queue behind those already due now"
    [ "far"; "a"; "b"; "far+0"; "a+0"; "a+0+0" ]
    (List.rev !log);
  Alcotest.(check int) "clock" 500 (Engine.now eng)

let test_wheel_wraps () =
  let eng = Engine.create () in
  (* Two chains whose delays cycle through both sides of the span; every
     event checks it runs at the time it asked for. *)
  let delays = [| 1; wheel - 1; wheel; wheel + 1; 0; 100; 3 * wheel; 17 |] in
  let hits = ref 0 and late = ref 0 and last = ref 0 in
  let rec chain k n =
    if n > 0 then begin
      let at = Engine.now eng + delays.((n + k) mod Array.length delays) in
      Engine.schedule eng ~at (fun () ->
          incr hits;
          if Engine.now eng <> at then incr late;
          last := at;
          chain k (n - 1))
    end
  in
  chain 0 5000;
  chain 3 5000;
  Engine.run eng;
  Alcotest.(check int) "all ran" 10_000 !hits;
  Alcotest.(check int) "none early or late" 0 !late;
  Alcotest.(check int) "clock at the last event" !last (Engine.now eng);
  Alcotest.(check bool) "many spans crossed" true
    (Engine.now eng > 1000 * wheel)

let test_run_until_with_near_events () =
  let eng = Engine.create () in
  let log = ref [] in
  let note t = Engine.schedule eng ~at:t (fun () -> log := t :: !log) in
  List.iter note [ 10; 20; 200; 300 ];
  Engine.run ~until:100 eng;
  Alcotest.(check (list int)) "ran up to the limit" [ 10; 20 ] (List.rev !log);
  Alcotest.(check int) "clock at the last event run" 20 (Engine.now eng);
  Alcotest.(check int) "pending" 2 (Engine.pending eng);
  (* An event scheduled after the bounded run, earlier than the queued
     ones, still runs first. *)
  note 50;
  Engine.run ~until:200 eng;
  Alcotest.(check (list int)) "limit is inclusive" [ 10; 20; 50; 200 ]
    (List.rev !log);
  Engine.run eng;
  Alcotest.(check (list int)) "rest ran" [ 10; 20; 50; 200; 300 ]
    (List.rev !log);
  Alcotest.(check int) "drained" 0 (Engine.pending eng)

let test_pending_and_step_both_levels () =
  let eng = Engine.create () in
  let log = ref [] in
  let note t = Engine.schedule eng ~at:t (fun () -> log := t :: !log) in
  note 5;
  note 1000;
  note 10;
  Alcotest.(check int) "pending counts both levels" 3 (Engine.pending eng);
  let step_to t =
    Alcotest.(check bool) "stepped" true (Engine.step eng);
    Alcotest.(check int) "clock" t (Engine.now eng)
  in
  step_to 5;
  Alcotest.(check int) "pending" 2 (Engine.pending eng);
  step_to 10;
  step_to 1000;
  Alcotest.(check bool) "nothing left" false (Engine.step eng);
  Alcotest.(check (list int)) "order" [ 5; 10; 1000 ] (List.rev !log);
  Alcotest.(check int) "executed" 3 (Engine.events_executed eng)

let test_exact_budget () =
  (* A budget of n runs n queued events without complaint; one more event
     is refused and stays queued. *)
  let run_with events =
    let eng = Engine.create ~max_events:6 () in
    List.iter (fun t -> Engine.schedule eng ~at:t (fun () -> ())) events;
    let raised =
      match Engine.run eng with
      | () -> false
      | exception Engine.Deadlock _ -> true
    in
    (raised, Engine.events_executed eng, Engine.pending eng)
  in
  let check name expected got =
    Alcotest.(check (triple bool int int)) name expected got
  in
  check "exactly the budget" (false, 6, 0) (run_with [ 1; 2; 300; 301; 3; 900 ]);
  check "one over, near" (true, 6, 1)
    (run_with [ 1; 2; 300; 301; 3; 900; 4 ]);
  check "one over, far" (true, 6, 1)
    (run_with [ 1; 2; 300; 301; 3; 900; 5000 ])

let test_dispatch_allocates_nothing () =
  let eng = Engine.create () in
  let n = ref 0 in
  (* Every eighth event is due past the wheel's span, so both levels run. *)
  let rec feed () =
    incr n;
    Engine.schedule_after eng ~delay:(if !n land 7 = 0 then 300 else 1) feed
  in
  for _ = 1 to 16 do
    feed ()
  done;
  let steps k =
    for _ = 1 to k do
      ignore (Engine.step eng : bool)
    done
  in
  steps 10_000;
  let before = Gc.minor_words () in
  steps 100_000;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words" 0. (after -. before);
  Alcotest.(check int) "chains kept" 16 (Engine.pending eng)

(* A random program: each event, [delay] cycles after the one that scheduled
   it, schedules its children in order. Roots are scheduled at time 0. *)
type prog = Ev of int * prog list

let gen_delay =
  QCheck.Gen.(
    frequency
      [
        (3, int_range 0 4);
        (3, int_range (wheel - 4) (wheel + 4));
        (2, int_bound (3 * wheel));
        (1, return 0);
      ])

let gen_prog =
  QCheck.Gen.(
    sized_size (int_bound 40)
    @@ fix (fun self n ->
           map2
             (fun d kids -> Ev (d, kids))
             gen_delay
             (if n <= 1 then return []
              else list_size (int_bound 3) (self (n / 2)))))

let rec show_prog (Ev (d, kids)) =
  match kids with
  | [] -> string_of_int d
  | _ -> Printf.sprintf "%d[%s]" d (String.concat " " (List.map show_prog kids))

(* Number every event in preorder, so each has a name to log. *)
type node = { id : int; delay : int; kids : node list }

let number roots =
  let next = ref 0 in
  let rec go (Ev (delay, kids)) =
    let id = !next in
    incr next;
    { id; delay; kids = List.map go kids }
  in
  List.map go roots

(* The engine's log of (id, time), with [pending] after each bounded run. *)
let engine_trace roots limits =
  let eng = Engine.create () in
  let log = ref [] in
  let rec sched node =
    Engine.schedule_after eng ~delay:node.delay (fun () ->
        log := (node.id, Engine.now eng) :: !log;
        List.iter sched node.kids)
  in
  List.iter sched roots;
  let pendings =
    List.map
      (fun limit ->
        Engine.run ~until:limit eng;
        Engine.pending eng)
      limits
  in
  Engine.run eng;
  (List.rev !log, pendings)

(* The same program run on one [Pqueue] keyed by (time, schedule count). *)
let reference_trace roots limits =
  let q = Pqueue.create ~filler:{ id = -1; delay = 0; kids = [] } () in
  let now = ref 0 and seq = ref 0 and log = ref [] in
  let sched node =
    Pqueue.push q ~time:(!now + node.delay) ~seq:!seq node;
    incr seq
  in
  List.iter sched roots;
  let run limit =
    while (not (Pqueue.is_empty q)) && Pqueue.min_time q <= limit do
      now := Pqueue.min_time q;
      let node = Pqueue.pop_payload q in
      log := (node.id, !now) :: !log;
      List.iter sched node.kids
    done
  in
  let pendings =
    List.map
      (fun limit ->
        run limit;
        Pqueue.length q)
      limits
  in
  run max_int;
  (List.rev !log, pendings)

let prop_matches_single_heap =
  QCheck.Test.make ~name:"dispatch order matches a single heap" ~count:300
    QCheck.(
      pair
        (make
           ~print:(fun ps -> String.concat "; " (List.map show_prog ps))
           QCheck.Gen.(list_size (int_range 1 8) gen_prog))
        (make ~print:Print.(list int)
           QCheck.Gen.(list_size (int_bound 4) (int_bound (4 * wheel)))))
    (fun (progs, limits) ->
      let roots = number progs in
      let limits = List.sort compare limits in
      engine_trace roots limits = reference_trace roots limits)

let suite =
  [
    Alcotest.test_case "time starts at zero" `Quick test_time_starts_at_zero;
    Alcotest.test_case "runs events in time order" `Quick test_runs_in_order;
    Alcotest.test_case "same-time events run FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "scheduling in the past fails" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "events schedule events" `Quick
      test_events_can_schedule_events;
    Alcotest.test_case "run ~until leaves later events" `Quick test_run_until;
    Alcotest.test_case "run ~until advances an empty clock" `Quick
      test_run_until_advances_clock_when_empty;
    Alcotest.test_case "single step" `Quick test_step;
    Alcotest.test_case "livelock budget" `Quick test_event_budget;
    Alcotest.test_case "negative delay rejected" `Quick
      test_negative_delay_rejected;
    Alcotest.test_case "far before near at an equal time" `Quick
      test_far_before_near_at_equal_time;
    Alcotest.test_case "delay-0 events run after those queued" `Quick
      test_delay_zero_runs_after_queued;
    Alcotest.test_case "wheel wraps across many spans" `Quick test_wheel_wraps;
    Alcotest.test_case "run ~until with near events past the limit" `Quick
      test_run_until_with_near_events;
    Alcotest.test_case "pending and step across both levels" `Quick
      test_pending_and_step_both_levels;
    Alcotest.test_case "exact budget exhaustion" `Quick test_exact_budget;
    Alcotest.test_case "dispatch allocates nothing" `Quick
      test_dispatch_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_matches_single_heap;
  ]
