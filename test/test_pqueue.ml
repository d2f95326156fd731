(* Unit and property tests for the event heap. *)

open Eventsim

let test_empty () =
  let q = Pqueue.create ~filler:"" () in
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q);
  Alcotest.(check int) "length" 0 (Pqueue.length q);
  Alcotest.(check bool) "pop" true (Pqueue.pop q = None);
  Alcotest.(check bool) "peek" true (Pqueue.peek q = None)

let test_ordering () =
  let q = Pqueue.create ~filler:"" () in
  Pqueue.push q ~time:30 ~seq:0 "c";
  Pqueue.push q ~time:10 ~seq:1 "a";
  Pqueue.push q ~time:20 ~seq:2 "b";
  let pop () =
    match Pqueue.pop q with
    | Some e -> e.Pqueue.payload
    | None -> Alcotest.fail "unexpected empty"
  in
  Alcotest.(check string) "first" "a" (pop ());
  Alcotest.(check string) "second" "b" (pop ());
  Alcotest.(check string) "third" "c" (pop ());
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let test_fifo_ties () =
  let q = Pqueue.create ~filler:0 () in
  for i = 0 to 9 do
    Pqueue.push q ~time:5 ~seq:i i
  done;
  let order = List.map (fun e -> e.Pqueue.payload) (Pqueue.drain q) in
  Alcotest.(check (list int)) "ties pop in seq order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    order

let test_peek_does_not_remove () =
  let q = Pqueue.create ~filler:"" () in
  Pqueue.push q ~time:1 ~seq:0 "x";
  ignore (Pqueue.peek q);
  Alcotest.(check int) "still there" 1 (Pqueue.length q);
  Alcotest.(check (option int)) "peek_time" (Some 1) (Pqueue.peek_time q)

let test_clear () =
  let q = Pqueue.create ~filler:0 () in
  for i = 0 to 99 do
    Pqueue.push q ~time:i ~seq:i i
  done;
  Pqueue.clear q;
  Alcotest.(check bool) "cleared" true (Pqueue.is_empty q)

let test_interleaved_push_pop () =
  let q = Pqueue.create ~filler:0 () in
  Pqueue.push q ~time:10 ~seq:0 10;
  Pqueue.push q ~time:5 ~seq:1 5;
  (match Pqueue.pop q with
  | Some e -> Alcotest.(check int) "min first" 5 e.Pqueue.payload
  | None -> Alcotest.fail "empty");
  Pqueue.push q ~time:1 ~seq:2 1;
  (match Pqueue.pop q with
  | Some e -> Alcotest.(check int) "new min" 1 e.Pqueue.payload
  | None -> Alcotest.fail "empty");
  match Pqueue.pop q with
  | Some e -> Alcotest.(check int) "last" 10 e.Pqueue.payload
  | None -> Alcotest.fail "empty"

let prop_drain_sorted =
  QCheck.Test.make ~name:"drain is sorted by (time, seq)" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Pqueue.create ~filler:0 () in
      List.iteri (fun seq time -> Pqueue.push q ~time ~seq time) times;
      let out = Pqueue.drain q in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          (a.Pqueue.time < b.Pqueue.time
          || (a.Pqueue.time = b.Pqueue.time && a.Pqueue.seq < b.Pqueue.seq))
          && sorted rest
        | _ -> true
      in
      sorted out && List.length out = List.length times)

let prop_multiset_preserved =
  QCheck.Test.make ~name:"drain returns every pushed element" ~count:200
    QCheck.(list (int_bound 1000))
    (fun times ->
      let q = Pqueue.create ~filler:0 () in
      List.iteri (fun seq time -> Pqueue.push q ~time ~seq time) times;
      let out = List.map (fun e -> e.Pqueue.payload) (Pqueue.drain q) in
      List.sort compare out = List.sort compare times)

(* Random interleavings of push and pop against a reference model: every
   pop must return the exact (time, seq) minimum of what is currently in
   the heap, with seq as the FIFO tie-break, and the payload pushed with
   it. [Some t] pushes at time [t]; [None] pops. This exercises sift-down
   paths that drain-only properties never reach (pops from partially
   filled heaps mid-stream).

   Each run has two phases separated by a [clear]. Each phase opens with a
   burst of pushes at times 0..3 (many equal times): the first burst of at
   least 33 entries crosses the 16 -> 32 -> 64 capacity doublings, the
   second, after the clear, of at least 65 crosses 64 -> 128 on reused
   slots. *)
let prop_interleaved_order =
  QCheck.Test.make ~name:"interleaved push/pop pops exact (time, seq) minimum"
    ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(int_range 33 60) (int_bound 3))
        (list (option (int_bound 50)))
        (list_of_size Gen.(int_range 65 100) (int_bound 3))
        (list (option (int_bound 50))))
    (fun (burst1, ops1, burst2, ops2) ->
      let q = Pqueue.create ~filler:(-1, -1) () in
      let model = ref [] (* (time, seq) pairs currently in the heap *) in
      let seq = ref 0 in
      let ok = ref true in
      let apply = function
        | Some time ->
          Pqueue.push q ~time ~seq:!seq (time, !seq);
          model := (time, !seq) :: !model;
          incr seq
        | None -> (
          match (Pqueue.pop q, !model) with
          | None, [] -> ()
          | None, _ :: _ | Some _, [] -> ok := false
          | Some e, entries ->
            let expected =
              List.fold_left min (List.hd entries) (List.tl entries)
            in
            if (e.Pqueue.time, e.Pqueue.seq) <> expected then ok := false;
            if e.Pqueue.payload <> expected then ok := false;
            model := List.filter (fun x -> x <> expected) entries)
      in
      let phase burst ops =
        List.iter (fun time -> apply (Some time)) burst;
        if Pqueue.length q < List.length burst then ok := false;
        List.iter apply ops
      in
      phase burst1 ops1;
      Pqueue.clear q;
      model := [];
      if not (Pqueue.is_empty q) then ok := false;
      phase burst2 ops2;
      (* Whatever survives must still drain in exact order. *)
      let rest =
        List.map
          (fun e ->
            if e.Pqueue.payload <> (e.Pqueue.time, e.Pqueue.seq) then
              ok := false;
            (e.Pqueue.time, e.Pqueue.seq))
          (Pqueue.drain q)
      in
      !ok && rest = List.sort compare !model)

(* The engine's steady state: a queue at depth 16 where every round reads
   the minimum, pops it and pushes it back later. After warm-up no round
   may allocate. *)
let test_steady_state_allocates_nothing () =
  let depth = 16 and rounds = 100_000 in
  let payloads = Array.init depth (fun i -> fun () -> ignore i) in
  let q = Pqueue.create ~filler:(fun () -> ()) () in
  Array.iteri (fun i p -> Pqueue.push q ~time:i ~seq:i p) payloads;
  let seq = ref depth in
  let round () =
    let time = Pqueue.min_time q in
    let p = Pqueue.pop_payload q in
    Pqueue.push q ~time:(time + 1 + (!seq * 7919 mod 23)) ~seq:!seq p;
    incr seq
  in
  for _ = 1 to 1_000 do
    round ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words per round" 0.
    ((after -. before) /. float_of_int rounds);
  Alcotest.(check int) "depth kept" depth (Pqueue.length q)

(* Payload [i] is pushed at time [(37 * i) mod 64], a permutation of
   0..63, so popping 32 removes exactly those with time < 32. The pushes
   and pops run in their own functions so that no test-local variable
   keeps a payload alive. *)
let retention_n = 64

let push_boxed q weak =
  for i = 0 to retention_n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Pqueue.push q ~time:(37 * i mod retention_n) ~seq:i payload
  done
[@@inline never]

let pop_n q n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Pqueue.pop_payload q))
  done
[@@inline never]

let test_popped_payloads_not_retained () =
  let q = Pqueue.create ~filler:(ref (-1)) () in
  let weak = Weak.create retention_n in
  push_boxed q weak;
  pop_n q (retention_n / 2);
  Gc.full_major ();
  for i = 0 to retention_n - 1 do
    let popped = 37 * i mod retention_n < retention_n / 2 in
    Alcotest.(check bool)
      (Printf.sprintf "payload %d reachable" i)
      (not popped) (Weak.check weak i)
  done;
  pop_n q (retention_n / 2);
  Gc.full_major ();
  for i = 0 to retention_n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "payload %d reachable after drain" i)
      false (Weak.check weak i)
  done;
  Alcotest.(check bool) "drained" true (Pqueue.is_empty q)

let suite =
  [
    Alcotest.test_case "empty queue" `Quick test_empty;
    Alcotest.test_case "pops in time order" `Quick test_ordering;
    Alcotest.test_case "FIFO tie-breaking" `Quick test_fifo_ties;
    Alcotest.test_case "peek keeps elements" `Quick test_peek_does_not_remove;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
    Alcotest.test_case "steady state allocates nothing" `Quick
      test_steady_state_allocates_nothing;
    Alcotest.test_case "popped payloads not retained" `Quick
      test_popped_payloads_not_retained;
    QCheck_alcotest.to_alcotest prop_drain_sorted;
    QCheck_alcotest.to_alcotest prop_multiset_preserved;
    QCheck_alcotest.to_alcotest prop_interleaved_order;
  ]
