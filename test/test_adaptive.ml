(* Tests for the morphing lock (ADAPTIVE): a directed
   promote -> demote -> promote trace with a fixed seed, the diurnal
   acceptance pins (no static shape wins both phases; Adaptive tracks
   each phase winner within the pinned margin with at least one
   promotion and one demotion), and a directed crash-near-morph case —
   holders fail-stop right after the first promotion, while the freshly
   morphed shape is still draining the old one. The random-interleaving
   coverage (aborts, kills at arbitrary points) lives in the family-wide
   qcheck harnesses in [test_abort.ml] and [test_crash.ml], which
   include [Lock.adaptive]. *)

open Eventsim
open Hector
open Locks

(* One NUMAchine rig with the checker and observer installed, clustered
   exactly as the hardware is (4 stations of 4). *)
let make_rig ~vclass () =
  let eng = Engine.create () in
  let cfg = Config.numachine in
  let machine = Machine.create eng cfg in
  let n_procs = Config.n_procs cfg in
  let cluster_of p = p mod n_procs / 4 in
  let verify = Verify.create ~n_procs () in
  Machine.set_verify machine (Some verify);
  let obs = Obs.create ~cluster_of ~n_clusters:4 ~n_procs () in
  Machine.set_obs machine (Some obs);
  let topo = Lock_core.topo ~n_clusters:4 ~cluster_of in
  let lock = Lock.make machine ~vclass ~topo Lock.adaptive in
  (eng, machine, verify, obs, lock, Verify.lock_class vclass)

(* -- directed trace: promote, demote, promote --------------------------------

   Four equal eras: a single-processor trickle, a 12-processor hammer
   spanning three clusters, the trickle again, the hammer again. The
   shape gauge is sampled at the end of each era: the lock must still be
   test&set after the first cold era, promoted by the end of each hot
   era, and demoted all the way back down by the end of the second cold
   era — so the window statistics provably recover from a morph in both
   directions, twice. *)
let test_directed_trace () =
  let eng, machine, verify, obs, lock, cls = make_rig ~vclass:"adaptive-trace" () in
  let cfg = Machine.config machine in
  let era = Config.cycles_of_us cfg 400.0 in
  let hold = Config.cycles_of_us cfg 1.5 in
  let think_cold = Config.cycles_of_us cfg 5.0 in
  let think_hot = Config.cycles_of_us cfg 2.0 in
  let rng0 = Rng.create 7 in
  let think_for ctx rng think =
    if think > 0 then Ctx.work ctx ((think / 2) + Rng.int rng (max 1 think))
  in
  (* Processor 0 trickles through all four eras. *)
  let ctx0 = Ctx.create machine ~proc:0 (Rng.split rng0) in
  Process.spawn eng (fun () ->
      let rng = Ctx.rng ctx0 in
      while Machine.now machine < 4 * era do
        think_for ctx0 rng think_cold;
        lock.Lock.acquire ctx0;
        Ctx.work ctx0 hold;
        lock.Lock.release ctx0
      done);
  (* Processors 1-11 hammer through eras 2 and 4, abandoning at each
     era's edge so the cold eras start clean. *)
  for proc = 1 to 11 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    Process.spawn eng (fun () ->
        let rng = Ctx.rng ctx in
        List.iter
          (fun (start_at, stop_at) ->
            let now = Machine.now machine in
            if now < start_at then Ctx.work ctx (start_at - now);
            while Machine.now machine < stop_at do
              think_for ctx rng think_hot;
              if
                Machine.now machine < stop_at
                && lock.Lock.try_acquire_for ctx ~deadline:stop_at
              then begin
                Ctx.work ctx hold;
                lock.Lock.release ctx
              end
            done)
          [ (era, 2 * era); (3 * era, 4 * era) ])
  done;
  (* Sample the observer's shape gauge at each era edge. *)
  let shape_at = Array.make 4 (-1) in
  for i = 0 to 3 do
    Engine.schedule eng
      ~at:(((i + 1) * era) - 1)
      (fun () -> shape_at.(i) <- Obs.current_shape obs ~cls)
  done;
  Engine.run eng;
  Verify.finish verify ~now:(Machine.now machine);
  Alcotest.(check int) "cold era 1 never leaves test&set" 0 shape_at.(0);
  Alcotest.(check bool) "promoted by the end of hot era 1" true
    (shape_at.(1) > 0);
  Alcotest.(check int) "demoted back to test&set by the end of cold era 2" 0
    shape_at.(2);
  Alcotest.(check bool) "promoted again by the end of hot era 2" true
    (shape_at.(3) > 0);
  Alcotest.(check bool) "at least two promotions" true
    (Obs.morphs_up obs ~cls >= 2);
  Alcotest.(check bool) "at least one demotion" true
    (Obs.morphs_down obs ~cls >= 1);
  (* Per-cluster attribution is conserved. *)
  let rows = Obs.morph_rows obs ~cls in
  Alcotest.(check int) "per-cluster promotions sum to the total"
    (Obs.morphs_up obs ~cls)
    (List.fold_left (fun a r -> a + r.Obs.m_up) 0 rows);
  Alcotest.(check int) "per-cluster demotions sum to the total"
    (Obs.morphs_down obs ~cls)
    (List.fold_left (fun a r -> a + r.Obs.m_down) 0 rows);
  Alcotest.(check bool) "free after the drain" true (lock.Lock.is_free ());
  Alcotest.(check int) "no lockdep violations" 0
    (Verify.violation_count verify)

(* -- directed crash near a morph ---------------------------------------------

   Eight processors hammer a recoverable Adaptive lock from time zero, so
   the first promotion fires within a few acquisitions. Two victims watch
   the observer's morph counters from inside their critical sections and
   fail-stop the moment the first morph has happened — corpses die
   holding the freshly promoted shape while it is still draining the old
   one, the exact window the recover path's validated-corpse /
   sweep-all-shapes split exists for. Survivors must keep acquiring
   through recovery and leave the lock free. *)
let test_crash_near_morph () =
  let eng, machine, verify, obs, lock, cls = make_rig ~vclass:"adaptive-crash" () in
  assert lock.Lock.recoverable;
  let n_kills = 2 in
  let kills = ref 0 and wins = ref 0 in
  let occupant = ref (-1) and excl = ref true in
  let rng0 = Rng.create 13 in
  for proc = 0 to 7 do
    let ctx = Ctx.create machine ~proc (Rng.split rng0) in
    let victim = proc = 1 || proc = 2 in
    Process.spawn eng (fun () ->
        let r = Ctx.rng ctx in
        for _ = 1 to 40 do
          Lock.acquire_recoverable ~check_period:500 lock ctx;
          if !occupant >= 0 && Machine.proc_alive machine !occupant then
            excl := false;
          occupant := proc;
          Ctx.work ctx (1 + Rng.int r 24);
          if
            victim && !kills < n_kills
            && Obs.morphs_up obs ~cls + Obs.morphs_down obs ~cls > 0
          then begin
            incr kills;
            Machine.kill_proc machine proc;
            (* Parks here: the release below never runs. *)
            Ctx.work ctx 1
          end;
          occupant := -1;
          incr wins;
          lock.Lock.release ctx;
          Ctx.work ctx (1 + Rng.int r 16)
        done;
        (* Eventual progress: survivors outlive the corpses and drain. *)
        while !kills < n_kills do
          Ctx.work ctx 500
        done;
        Lock.acquire_recoverable ~check_period:500 lock ctx;
        if !occupant >= 0 && Machine.proc_alive machine !occupant then
          excl := false;
        occupant := proc;
        Ctx.work ctx 5;
        occupant := -1;
        incr wins;
        lock.Lock.release ctx)
  done;
  Engine.run eng;
  Verify.finish verify ~now:(Machine.now machine);
  Alcotest.(check bool) "a morph happened before the kills" true
    (Obs.morphs_up obs ~cls >= 1);
  Alcotest.(check int) "both victims died" n_kills !kills;
  Alcotest.(check int) "machine counted the crashes" n_kills
    (Machine.crashes machine);
  Alcotest.(check bool) "mutual exclusion modulo recovery" true !excl;
  Alcotest.(check int) "acquisitions conserved" (!wins + !kills)
    (lock.Lock.acquisitions ());
  Alcotest.(check bool) "free after the surviving drain" true
    (lock.Lock.is_free ());
  Alcotest.(check int) "no lockdep violations" 0
    (Verify.violation_count verify)

(* -- the ADAPTIVE acceptance pins --------------------------------------------

   The full diurnal race at the default (paper) settings: the same
   numbers [bench adaptive] prints and Bench_json exports. *)
let test_diurnal_pins () =
  let pts = Hurricane.Experiments.(rows adaptive) in
  let open Workloads.Diurnal in
  List.iter
    (fun p ->
      Alcotest.(check int) (p.algo_name ^ " violations") 0 p.lockdep_violations;
      Alcotest.(check bool) (p.algo_name ^ " free") true p.final_free;
      Alcotest.(check bool) (p.algo_name ^ " completed work in every phase") true
        (p.cold1_ops > 0 && p.hot_ops > 0 && p.cold2_ops > 0))
    pts;
  let is_adaptive p =
    match p.algo with Lock.Adaptive _ -> true | _ -> false
  in
  let statics = List.filter (fun p -> not (is_adaptive p)) pts in
  let adaptive = List.find is_adaptive pts in
  List.iter
    (fun p ->
      Alcotest.(check int) (p.algo_name ^ " never morphs") 0
        (p.morphs_up + p.morphs_down))
    statics;
  let best f = List.fold_left (fun a p -> if f p > f a then p else a)
      (List.hd statics) statics in
  let best_cold = best (fun p -> p.cold_throughput_ops_ms) in
  let best_hot = best (fun p -> p.hot_throughput_ops_ms) in
  (* The point of the experiment: the regimes have different winners. *)
  Alcotest.(check bool)
    (Printf.sprintf "no static wins both phases (cold: %s, hot: %s)"
       best_cold.algo_name best_hot.algo_name)
    true
    (best_cold.algo <> best_hot.algo);
  (* Adaptive tracks each phase winner within the pinned margin... *)
  Alcotest.(check bool)
    (Printf.sprintf "adaptive cold %.1f within 0.75x of %s's %.1f"
       adaptive.cold_throughput_ops_ms best_cold.algo_name best_cold.cold_throughput_ops_ms)
    true
    (adaptive.cold_throughput_ops_ms >= 0.75 *. best_cold.cold_throughput_ops_ms);
  Alcotest.(check bool)
    (Printf.sprintf "adaptive hot %.1f within 0.5x of %s's %.1f"
       adaptive.hot_throughput_ops_ms best_hot.algo_name best_hot.hot_throughput_ops_ms)
    true
    (adaptive.hot_throughput_ops_ms >= 0.5 *. best_hot.hot_throughput_ops_ms);
  (* ...by actually morphing, and cooling back down by the end. *)
  Alcotest.(check bool) "at least one promotion" true (adaptive.morphs_up >= 1);
  Alcotest.(check bool) "at least one demotion" true
    (adaptive.morphs_down >= 1);
  Alcotest.(check int) "back to test&set overnight" 0 adaptive.final_shape

let suite =
  [
    Alcotest.test_case "directed trace: promote, demote, promote" `Quick
      test_directed_trace;
    Alcotest.test_case "crash near a morph: recovery mid-drain" `Quick
      test_crash_near_morph;
    Alcotest.test_case "ADAPTIVE: diurnal acceptance pins" `Slow
      test_diurnal_pins;
  ]
