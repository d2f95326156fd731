(* Tests for the lock-family extensions (ticket, Anderson) and the
   four-classes capstone workload. *)

open Eventsim
open Hector
open Locks

let make_numa () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.numachine in
  let ctx p = Ctx.create machine ~proc:p (Rng.create (600 + p)) in
  (eng, machine, ctx)

let stress_lock acquire release machine eng ctx_of =
  let inside = ref 0 and peak = ref 0 and total = ref 0 in
  for proc = 0 to 7 do
    let ctx = ctx_of proc in
    Process.spawn eng (fun () ->
        for _ = 1 to 25 do
          acquire ctx;
          incr inside;
          peak := max !peak !inside;
          incr total;
          Ctx.work ctx 40;
          decr inside;
          release ctx
        done)
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !peak;
  Alcotest.(check int) "all ran" 200 !total;
  ignore machine

let test_ticket_mutual_exclusion () =
  let eng, machine, ctx = make_numa () in
  let lock = Ticket_lock.create ~home:0 machine in
  stress_lock (Ticket_lock.acquire lock) (Ticket_lock.release lock) machine eng ctx;
  Alcotest.(check int) "acquisitions" 200 (Ticket_lock.acquisitions lock);
  Alcotest.(check bool) "free at end" true (Ticket_lock.is_free lock)

let test_ticket_fifo () =
  let eng, machine, ctx = make_numa () in
  let lock = Ticket_lock.create ~home:0 machine in
  let order = ref [] in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Ticket_lock.acquire lock c;
      Ctx.work c 3000;
      Ticket_lock.release lock c);
  for p = 1 to 4 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (150 * p);
        Ticket_lock.acquire lock c;
        order := p :: !order;
        Ticket_lock.release lock c)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "tickets are FIFO" [ 1; 2; 3; 4 ]
    (List.rev !order)

let test_ticket_needs_cas () =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  Alcotest.(check bool) "refused on swap-only HECTOR" true
    (match Ticket_lock.create machine with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_anderson_mutual_exclusion () =
  let eng, machine, ctx = make_numa () in
  let lock = Anderson_lock.create ~home:0 machine in
  stress_lock (Anderson_lock.acquire lock) (Anderson_lock.release lock) machine
    eng ctx;
  Alcotest.(check int) "acquisitions" 200 (Anderson_lock.acquisitions lock)

let test_anderson_fifo () =
  let eng, machine, ctx = make_numa () in
  let lock = Anderson_lock.create ~home:0 machine in
  let order = ref [] in
  Process.spawn eng (fun () ->
      let c = ctx 0 in
      Anderson_lock.acquire lock c;
      Ctx.work c 3000;
      Anderson_lock.release lock c);
  for p = 1 to 4 do
    Process.spawn eng (fun () ->
        let c = ctx p in
        Process.pause eng (150 * p);
        Anderson_lock.acquire lock c;
        order := p :: !order;
        Anderson_lock.release lock c)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "slots are FIFO" [ 1; 2; 3; 4 ] (List.rev !order)

let test_space_accounting () =
  let w a = Lock.space_words ~n_procs:16 a in
  Alcotest.(check int) "spin" 1 (w (Lock.Spin { max_backoff_us = 35.0 }));
  Alcotest.(check int) "ticket" 2 (w Lock.Ticket);
  Alcotest.(check int) "anderson" 17 (w Lock.Anderson);
  (* "an additional two words per actively spinning processor" *)
  Alcotest.(check int) "mcs" 33 (w Lock.Mcs_h2);
  Alcotest.(check bool) "clh comparable to mcs" true (w Lock.Clh <= w Lock.Mcs_h2);
  (* The NUMA composites at P = 16, C = 4 (the numachine clustering); the
     formulas are documented in lock.mli. *)
  let w4 a = Lock.space_words ~n_clusters:4 ~n_procs:16 a in
  Alcotest.(check int) "cohort = global + C*local + 2C" 173 (w4 Lock.c_mcs_mcs);
  Alcotest.(check int) "hmcs = 1 + 3C + 2P" 45 (w4 Lock.hmcs);
  Alcotest.(check int) "cna = 3 + 3P" 51 (w4 Lock.cna);
  (* CNA's "compact" claim: its footprint does not grow with the cluster
     count. *)
  Alcotest.(check int) "cna is cluster-independent" (w4 Lock.cna)
    (Lock.space_words ~n_clusters:1 ~n_procs:16 Lock.cna)

let test_lock_family_via_uniform_interface () =
  let eng, machine, ctx = make_numa () in
  List.iter
    (fun algo ->
      let lock = Lock.make machine algo in
      Process.spawn eng (fun () ->
          let c = ctx 0 in
          lock.Lock.acquire c;
          lock.Lock.release c;
          Alcotest.(check bool)
            (Lock.algo_name algo ^ " free after")
            true (lock.Lock.is_free ())))
    ([ Lock.Ticket; Lock.Anderson ] @ Lock.all_numa_algos);
  Engine.run eng

let test_four_classes_shape () =
  let r =
    Workloads.Four_classes.run
      ~config:{ Workloads.Four_classes.default_config with iters = 30 }
      ()
  in
  let open Workloads in
  (* Classes 1-3 stay near the uncontended fault cost even while class 4
     runs; class 4 pays the cross-cluster ownership traffic. *)
  Alcotest.(check bool) "class 1 near baseline" true
    (r.Four_classes.non_concurrent.Measure.mean_us < 260.0);
  Alcotest.(check bool) "class 2 near baseline" true
    (r.Four_classes.independent.Measure.mean_us < 260.0);
  Alcotest.(check bool) "class 3 absorbed by replication" true
    (r.Four_classes.read_shared.Measure.mean_us < 300.0);
  Alcotest.(check bool) "class 4 pays for write sharing" true
    (r.Four_classes.write_shared.Measure.mean_us
    > r.Four_classes.independent.Measure.mean_us *. 1.2);
  Alcotest.(check bool) "ownership traffic happened" true
    (r.Four_classes.invalidations > 0);
  Alcotest.(check bool) "replication happened" true
    (r.Four_classes.replications >= 16)

let test_lock_family_ablation_runs () =
  let rows = Hurricane.Experiments.(rows ablation_lock_family) in
  Alcotest.(check int) "all six algorithms" 6 (List.length rows);
  List.iter
    (fun (algo, unc_us, contended12_us, _) ->
      Alcotest.(check bool)
        (Lock.algo_name algo ^ " sane")
        true
        (unc_us > 0.0 && contended12_us > unc_us))
    rows

let suite =
  [
    Alcotest.test_case "ticket mutual exclusion" `Quick
      test_ticket_mutual_exclusion;
    Alcotest.test_case "ticket FIFO" `Quick test_ticket_fifo;
    Alcotest.test_case "ticket needs CAS" `Quick test_ticket_needs_cas;
    Alcotest.test_case "Anderson mutual exclusion" `Quick
      test_anderson_mutual_exclusion;
    Alcotest.test_case "Anderson FIFO" `Quick test_anderson_fifo;
    Alcotest.test_case "lock space accounting" `Quick test_space_accounting;
    Alcotest.test_case "ticket/Anderson/composites via Lock.make" `Quick
      test_lock_family_via_uniform_interface;
    Alcotest.test_case "CLASSES: four access classes" `Slow
      test_four_classes_shape;
    Alcotest.test_case "ABL9: lock family runs" `Slow
      test_lock_family_ablation_runs;
  ]
