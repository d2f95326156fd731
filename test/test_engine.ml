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
  ]
