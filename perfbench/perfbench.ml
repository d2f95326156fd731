(* Host-cost benchmark runner.

   Runs one workload (fig7d, numa_locks or slo) as a batch of independent
   simulation cells, each driven through the public [Workloads.*.run]
   entry point with the configuration [Experiments] uses, and measures
   what the cells cost the host. It prints one JSON document on stdout:
   the simulated outputs of every cell, host timings, heap size and, in a
   traced run, per-layer probe results and Runtime_events GC totals.
   [perfbench/run.py] turns that document into named metrics and checks
   the simulated outputs; see [perfbench/README.md].

   Single domain, closed loop, one client: cells run back to back. *)

open Eventsim
open Hector
open Locks
open Workloads
module Experiments = Hurricane.Experiments

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

let elapsed_since t0 = now_ns () - t0

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* -- Cells ----------------------------------------------------------------- *)

(* A cell is one public run call. [run] returns the simulated outputs and
   the number of operations (page faults, lock acquisitions or requests)
   they represent; [setup] is the same call at zero simulated load, so its
   host time is the cell's set-up cost. *)
type cell = {
  key : (string * Json.t) list;
  run : unit -> (string * Json.t) list * int;
  setup : unit -> unit;
}

let summary_json (s : Measure.summary) =
  Json.Obj
    [
      ("n", Json.Int s.Measure.n);
      ("mean_us", Json.Float s.Measure.mean_us);
      ("p50_us", Json.Float s.Measure.p50_us);
      ("p90_us", Json.Float s.Measure.p90_us);
      ("p99_us", Json.Float s.Measure.p99_us);
      ("p999_us", Json.Float s.Measure.p999_us);
      ("min_us", Json.Float s.Measure.min_us);
      ("max_us", Json.Float s.Measure.max_us);
      ("frac_above_2ms", Json.Float s.Measure.frac_above_2ms);
    ]

(* Benchmark seed 0 gives each workload its committed configuration seed;
   seed [s] offsets it by [s]. *)

let fig7d_cells ~seed ~quick =
  let rounds = if quick then 1 else 15 in
  List.concat_map
    (fun lock_algo ->
      List.map
        (fun cluster_size ->
          let config =
            {
              Shared_faults.default_config with
              p = 16;
              rounds;
              cluster_size;
              lock_algo;
              seed = Shared_faults.default_config.Shared_faults.seed + seed;
            }
          in
          {
            key =
              [
                ("algo", Json.String (Lock.algo_name lock_algo));
                ("x", Json.Int cluster_size);
              ];
            run =
              (fun () ->
                let r = Shared_faults.run ~config () in
                let s = r.Shared_faults.summary in
                ( [
                    ("mean_us", Json.Float s.Measure.mean_us);
                    ("p99_us", Json.Float s.Measure.p99_us);
                    ("retries", Json.Int r.Shared_faults.retries);
                    ("rpcs", Json.Int r.Shared_faults.rpcs);
                    ("faults", Json.Int r.Shared_faults.faults);
                    ("expected_faults",
                     Json.Int (config.p * config.n_pages * config.rounds));
                    ("replications", Json.Int r.Shared_faults.replications);
                    ("invalidations", Json.Int r.Shared_faults.invalidations);
                    ("reserve_conflicts",
                     Json.Int r.Shared_faults.reserve_conflicts);
                    ("latency", summary_json s);
                  ],
                  r.Shared_faults.faults ));
            setup =
              (fun () ->
                ignore (Shared_faults.run ~config:{ config with rounds = 0 } ()));
          })
        Experiments.paper_cluster_sizes)
    Experiments.fig7_algos

let numa_locks_cells ~seed ~quick =
  List.concat_map
    (fun algo ->
      List.concat_map
        (fun n_clusters ->
          List.map
            (fun hold_us ->
              let config =
                {
                  Numa_stress.default_config with
                  n_clusters;
                  hold_us;
                  window_us =
                    (if quick then 500.0
                     else Numa_stress.default_config.Numa_stress.window_us);
                  seed = Numa_stress.default_config.Numa_stress.seed + seed;
                }
              in
              {
                key =
                  [
                    ("algo", Json.String (Lock.algo_name algo));
                    ("clusters", Json.Int n_clusters);
                    ("hold_us", Json.Float hold_us);
                  ];
                run =
                  (fun () ->
                    let r = Numa_stress.run ~config algo in
                    let s = r.Numa_stress.summary in
                    let local = r.Numa_stress.local_handoffs in
                    let remote = r.Numa_stress.remote_handoffs in
                    let total = local + remote in
                    ( [
                        ("mean_us", Json.Float s.Measure.mean_us);
                        ("p99_us", Json.Float s.Measure.p99_us);
                        ("acquisitions", Json.Int r.Numa_stress.acquisitions);
                        ("local_handoffs", Json.Int local);
                        ("remote_handoffs", Json.Int remote);
                        ("remote_frac",
                         Json.Float
                           (if total = 0 then 0.0
                            else float_of_int remote /. float_of_int total));
                        ("max_wait_us", Json.Float r.Numa_stress.max_wait_us);
                        ("atomics", Json.Int r.Numa_stress.atomics);
                        ("latency", summary_json s);
                      ],
                      r.Numa_stress.acquisitions ));
                setup =
                  (fun () ->
                    ignore
                      (Numa_stress.run
                         ~config:{ config with warmup_us = 0.0; window_us = 0.0 }
                         algo));
              })
            [ 0.0; 10.0 ])
        [ 1; 2; 4 ])
    Experiments.numa_algos

let slo_cells ~seed ~quick =
  let d = Slo_stream.default_config in
  List.map
    (fun rate ->
      let config =
        {
          d with
          Slo_stream.rate_per_ms = rate;
          elements = (if quick then 20_000 else d.Slo_stream.elements);
          requests = (if quick then 200 else d.Slo_stream.requests);
          seed = d.Slo_stream.seed + seed;
        }
      in
      {
        key = [ ("offered_per_ms", Json.Float rate) ];
        run =
          (fun () ->
            let r = Slo_stream.run ~config () in
            ( [
                ("p", Json.Int config.Slo_stream.p);
                ("elements", Json.Int config.Slo_stream.elements);
                ("shards", Json.Int config.Slo_stream.shards);
                ("requests", Json.Int config.Slo_stream.requests);
                ("completed", Json.Int r.Slo_stream.completed);
                ("achieved_per_ms", Json.Float r.Slo_stream.achieved_per_ms);
                ("read", summary_json r.Slo_stream.read_summary);
                ("update", summary_json r.Slo_stream.update_summary);
                ("peak_backlog", Json.Int r.Slo_stream.peak_backlog);
                ("optimistic_hits", Json.Int r.Slo_stream.optimistic_hits);
                ("optimistic_fallbacks",
                 Json.Int r.Slo_stream.optimistic_fallbacks);
                ("lockdep_violations",
                 Json.Int r.Slo_stream.lockdep_violations);
                ("makespan_us", Json.Float r.Slo_stream.makespan_us);
                ("atomics", Json.Int r.Slo_stream.atomics);
              ],
              r.Slo_stream.completed ));
        setup =
          (fun () ->
            ignore
              (Slo_stream.run ~config:{ config with Slo_stream.requests = 1 } ()));
      })
    Experiments.slo_rates

let cells_of ~workload ~seed ~quick =
  match workload with
  | "fig7d" -> fig7d_cells ~seed ~quick
  | "numa_locks" -> numa_locks_cells ~seed ~quick
  | "slo" -> slo_cells ~seed ~quick
  | w -> invalid_arg (Printf.sprintf "unknown workload %S" w)

(* -- Spans ----------------------------------------------------------------- *)

(* Spans are kept in memory and written as a Chrome trace when the run
   ends. Benchmark spans nest workload > cell | setup (and probes > probe);
   GC spans from Runtime_events become children of the innermost benchmark
   span that contains their start. *)
type span = {
  id : int;
  parent : int;
  name : string;
  cat : string;
  t0 : int;
  mutable t1 : int;
}

let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

let open_span ~cat name =
  incr next_id;
  let parent = match !open_spans with s :: _ -> s.id | [] -> 0 in
  let s = { id = !next_id; parent; name; cat; t0 = now_ns (); t1 = 0 } in
  open_spans := s :: !open_spans;
  s

let close_span s =
  s.t1 <- now_ns ();
  (match !open_spans with
   | top :: rest when top == s -> open_spans := rest
   | _ -> failwith "close_span: not the innermost open span");
  spans := s :: !spans

(* Runtime_events GC phases: the outermost begin/end pair of each nest is
   one GC span. *)
let gc_depth = ref 0
let gc_start = ref 0
let gc_phase = ref ""
let gc_pending : (int * int * string) list ref = ref []
let lost_events = ref 0

let gc_callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun _ ts phase ->
      if !gc_depth = 0 then begin
        gc_start := Int64.to_int (Runtime_events.Timestamp.to_int64 ts);
        gc_phase := Runtime_events.runtime_phase_name phase
      end;
      incr gc_depth)
    ~runtime_end:(fun _ ts _ ->
      if !gc_depth > 0 then begin
        decr gc_depth;
        if !gc_depth = 0 then
          gc_pending :=
            ( !gc_start,
              Int64.to_int (Runtime_events.Timestamp.to_int64 ts),
              !gc_phase )
            :: !gc_pending
      end)
    ~lost_events:(fun _ n ->
      lost_events := !lost_events + n;
      gc_depth := 0)
    ()

let cursor = lazy (Runtime_events.create_cursor None)

(* Drain the ring; [closed] is the benchmark span that just ended, if any.
   Returns the GC nanoseconds attributed to [closed]. *)
let poll_gc ?closed () =
  ignore (Runtime_events.read_poll (Lazy.force cursor) gc_callbacks None);
  let contains s t = t >= s.t0 && (s.t1 = 0 || t < s.t1) in
  let inside = ref 0 in
  List.iter
    (fun (t0, t1, phase) ->
      let parent =
        match closed with
        | Some s when contains s t0 ->
          inside := !inside + (t1 - t0);
          s.id
        | _ -> (
          match List.find_opt (fun s -> contains s t0) !open_spans with
          | Some s -> s.id
          | None -> 0)
      in
      incr next_id;
      spans := { id = !next_id; parent; name = phase; cat = "gc"; t0; t1 } :: !spans)
    (List.rev !gc_pending);
  gc_pending := [];
  !inside

let with_span ~cat name f =
  ignore (poll_gc ());
  let s = open_span ~cat name in
  let r = Fun.protect ~finally:(fun () -> close_span s) f in
  (r, s.t1 - s.t0, poll_gc ~closed:s ())

let trace_json () =
  let us ns = Json.Float (float_of_int ns /. 1000.0) in
  let events =
    List.rev_map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String s.cat);
            ("ph", Json.String "X");
            ("ts", us s.t0);
            ("dur", us (s.t1 - s.t0));
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
          ])
      !spans
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]

(* -- Cell passes ----------------------------------------------------------- *)

type cell_state = {
  cell : cell;
  mutable row : (string * Json.t) list option;
  mutable ops : int;
  mutable errors : string list;
  mutable times_ns : int list;
  mutable refs_ns : int list;  (** reference time around each sample *)
}

let note_error st msg = if not (List.mem msg st.errors) then st.errors <- msg :: st.errors

let record_run st result =
  match result with
  | Error msg -> note_error st msg
  | Ok (fields, ops) -> (
    let row = st.cell.key @ fields in
    match st.row with
    | None ->
      st.row <- Some row;
      st.ops <- ops
    | Some first ->
      if first <> row then note_error st "simulated outputs differ between passes")

(* Host speed drifts by tens of percent within minutes on a shared box, so
   every timed cell is bracketed by a fixed reference loop: stdlib-only, no
   repository code, allocation-free (it pays for no GC debt), random reads
   and writes over an 8 MB off-heap table plus integer arithmetic. Its time
   is the host's speed at that moment. *)
let reference_table = Bigarray.(Array1.create int c_layout (1 lsl 20))
let () = Bigarray.Array1.fill reference_table 0

let reference () =
  let t0 = now_ns () in
  let x = ref 12345 in
  for _ = 1 to 500_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land ((1 lsl 20) - 1) in
    Bigarray.Array1.unsafe_set reference_table j
      (Bigarray.Array1.unsafe_get reference_table j + (!x lsr 7))
  done;
  elapsed_since t0

let call st = match st.cell.run () with r -> Ok r | exception e -> Error (Printexc.to_string e)

let run_cell st =
  let r0 = reference () in
  let t0 = now_ns () in
  let result = call st in
  let dt = elapsed_since t0 in
  let r1 = reference () in
  record_run st result;
  st.times_ns <- dt :: st.times_ns;
  st.refs_ns <- ((r0 + r1) / 2) :: st.refs_ns;
  dt

let run_setup st =
  let t0 = now_ns () in
  (match st.cell.setup () with
   | () -> ()
   | exception e -> note_error st ("set-up run: " ^ Printexc.to_string e));
  elapsed_since t0

(* Set up every cell [reps] times, at least [min_reps] and otherwise while
   [budget_ns] lasts; each rep's sum is one set-up sample. *)
let setup_reps states ~min_reps ~max_reps ~budget_ns =
  let t_start = now_ns () in
  let sums = ref [] in
  let reps = ref 0 in
  while !reps < min_reps || (!reps < max_reps && elapsed_since t_start < budget_ns) do
    let r0 = reference () in
    let sum = List.fold_left (fun acc st -> acc + run_setup st) 0 states in
    let r1 = reference () in
    sums := (sum, (r0 + r1) / 2) :: !sums;
    incr reps
  done;
  List.rev !sums

(* Whole passes over the cells: at least [min_passes], then more while one
   of the mean length so far still ends within [budget_ns] of [t_start]. *)
let passes ~t_start ~min_passes ~budget_ns pass =
  let n = ref 0 and spent = ref 0 in
  let fits () = elapsed_since t_start + (!spent / max 1 !n) <= budget_ns in
  while !n < min_passes || fits () do
    let t0 = now_ns () in
    pass !n;
    spent := !spent + elapsed_since t0;
    incr n
  done;
  !n

(* -- Per-layer probes ------------------------------------------------------ *)

(* [probe ~iters f] runs [f iters] [reps] times and returns the median host
   ns per iteration and the minor words per iteration. *)
let probe ?(reps = 5) ~iters f =
  let samples =
    List.init reps (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        f iters;
        let dt = elapsed_since t0 in
        let w = Gc.minor_words () -. w0 in
        (float_of_int dt /. float_of_int iters, w /. float_of_int iters))
  in
  (median_float (List.map fst samples), median_float (List.map snd samples))

(* One simulated process on processor 0 of a fresh HECTOR machine. *)
let on_proc0 ?(prepare = fun _ -> ()) body =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  prepare machine;
  let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
  let go = body machine ctx in
  Process.spawn eng go;
  Engine.run eng

let dispatch n =
  let eng = Engine.create () in
  let remaining = ref n in
  let rec feed () =
    if !remaining > 0 then begin
      decr remaining;
      Engine.schedule_after eng ~delay:1 feed
    end
  in
  (* 16 chains keep the heap 16 deep, as in a 16-processor run. *)
  for _ = 1 to 16 do
    feed ()
  done;
  Engine.run eng

let pause n =
  let eng = Engine.create () in
  Process.spawn eng (fun () ->
      for _ = 1 to n do
        Process.pause eng 1
      done);
  Engine.run eng

let machine_op op ~home n =
  on_proc0 (fun machine _ ->
      let cell = Machine.alloc machine ~home 0 in
      fun () ->
        for i = 1 to n do
          op machine cell i
        done)

let ctx_read n =
  on_proc0 (fun machine ctx ->
      let cell = Machine.alloc machine ~home:15 0 in
      fun () ->
        for _ = 1 to n do
          ignore (Ctx.read ctx cell)
        done)

let station_obs cfg =
  let n_stations =
    1 + List.fold_left max 0 (List.init (Config.n_procs cfg) (Config.station_of_proc cfg))
  in
  Obs.create ~cluster_of:(Config.station_of_proc cfg) ~n_clusters:n_stations
    ~n_procs:(Config.n_procs cfg) ()

let lock_pairs ?(instrument = `Bare) algo n =
  let prepare machine =
    match instrument with
    | `Bare -> ()
    | `Obs -> Machine.set_obs machine (Some (station_obs Config.hector))
    | `Verify ->
      Machine.set_verify machine
        (Some (Verify.create ~n_procs:(Config.n_procs Config.hector) ()))
  in
  on_proc0 ~prepare (fun machine ctx ->
      let lock = Lock.make machine ~home:0 algo in
      fun () ->
        for _ = 1 to n do
          lock.Lock.acquire ctx;
          lock.Lock.release ctx
        done)

(* The SLO table shape: sharded, 2^17 bins, 16 shards homed on 16 PMMs. *)
let slo_table machine =
  Hkernel.Khash.create machine ~granularity:Hkernel.Khash.Sharded ~nbins:(1 lsl 17)
    ~shards:16 ~vname:"probe" ~lock_algo:Lock.Mcs_h2 ~homes:(List.init 16 Fun.id)

let fault_unmap n =
  let eng = Engine.create () in
  let machine = Machine.create eng Config.hector in
  let kernel =
    Hkernel.Kernel.create machine ~cluster_size:16 ~lock_algo:Lock.Mcs_h2 ~seed:13
  in
  let vpage = Shared_faults.vpage_of 0 in
  Hkernel.Kernel.populate_page kernel ~vpage ~master_cluster:0 ~frame:vpage;
  Hkernel.Kernel.spawn_idle_except kernel ~active:[ 0 ];
  let ctx = Hkernel.Kernel.ctx kernel 0 in
  Process.spawn eng (fun () ->
      for _ = 1 to n do
        Hkernel.Memmgr.fault kernel ctx ~vpage ~write:true;
        Hkernel.Memmgr.unmap kernel ctx ~vpage
      done);
  Engine.run eng

let lock_probe_algos =
  [
    ("h1_mcs", Lock.Mcs_h1);
    ("h2_mcs", Lock.Mcs_h2);
    ("spin_35us", Lock.Spin { max_backoff_us = 35.0 });
    ("c_mcs_mcs", Lock.c_mcs_mcs);
    ("hmcs", Lock.hmcs);
    ("cna", Lock.cna);
  ]

let run_probes ~quick =
  let scale n = if quick then max 1 (n / 50) else n in
  let out = ref [] in
  let put name v = out := (name, Json.Float v) :: !out in
  let timed name ~iters f =
    let (ns, words), _, _ = with_span ~cat:"probe" name (fun () -> probe ~iters:(scale iters) f) in
    (ns, words)
  in
  let (), _, _ =
    with_span ~cat:"bench" "probes" (fun () ->
        let ns, _ = timed "eventsim.dispatch" ~iters:200_000 dispatch in
        put "eventsim.dispatch_ns" ns;
        let ns, words = timed "eventsim.pause" ~iters:100_000 pause in
        put "eventsim.pause_ns" ns;
        put "eventsim.pause_words" words;
        let read machine cell _ = ignore (Machine.read machine ~proc:0 cell) in
        let ns, _ = timed "hector.read_local" ~iters:50_000 (machine_op read ~home:0) in
        put "hector.read_local_ns" ns;
        let ns, words =
          timed "hector.read_remote" ~iters:50_000 (machine_op read ~home:15)
        in
        put "hector.read_remote_ns" ns;
        put "hector.access_words" words;
        let fas machine cell i = ignore (Machine.fetch_and_store machine ~proc:0 cell i) in
        let ns, _ = timed "hector.fas" ~iters:50_000 (machine_op fas ~home:15) in
        put "hector.fas_ns" ns;
        let ns, _ = timed "hector.ctx_read" ~iters:50_000 ctx_read in
        put "hector.ctx_read_ns" ns;
        List.iter
          (fun (slug, algo) ->
            let ns, words = timed ("locks." ^ slug) ~iters:20_000 (lock_pairs algo) in
            put (Printf.sprintf "locks.%s.pair_ns" slug) ns;
            put (Printf.sprintf "locks.%s.pair_words" slug) words)
          lock_probe_algos;
        let bare, _ = timed "locks.h2_mcs.bare" ~iters:20_000 (lock_pairs Lock.Mcs_h2) in
        let obs, _ =
          timed "obs.pair" ~iters:20_000 (lock_pairs ~instrument:`Obs Lock.Mcs_h2)
        in
        let verify, _ =
          timed "verify.pair" ~iters:20_000 (lock_pairs ~instrument:`Verify Lock.Mcs_h2)
        in
        put "obs.pair_overhead_ns" (obs -. bare);
        put "verify.pair_overhead_ns" (verify -. bare);
        (* One 10^6-key build of the SLO table, then timed lookups on it. *)
        let keys = if quick then 20_000 else 1_000_000 in
        let eng = Engine.create () in
        let machine = Machine.create eng Config.hector in
        let table = slo_table machine in
        let build n =
          for k = 0 to n - 1 do
            ignore (Hkernel.Khash.insert_untimed table k ~status0:0 ~make:(fun _ -> ()))
          done
        in
        let (ns, words), _, _ =
          with_span ~cat:"probe" "hkernel.insert_untimed" (fun () ->
              probe ~reps:1 ~iters:keys build)
        in
        put "hkernel.insert_untimed_ns" ns;
        put "hkernel.insert_untimed_words" words;
        let lookups n =
          let ctx = Ctx.create machine ~proc:0 (Rng.create 1) in
          Process.spawn eng (fun () ->
              for i = 1 to n do
                ignore (Hkernel.Khash.lookup table ctx (i * 7919 mod keys))
              done);
          Engine.run eng
        in
        let ns, _ = timed "hkernel.lookup" ~iters:20_000 lookups in
        put "hkernel.lookup_ns" ns;
        let ns, _ = timed "hkernel.fault" ~iters:2_000 fault_unmap in
        put "hkernel.fault_ns" ns)
  in
  List.rev !out

(* -- Main ------------------------------------------------------------------ *)

let json_ints xs = Json.List (List.map (fun x -> Json.Int x) xs)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 in
  let trace = ref 0 and quick = ref false and limit = ref 0 and spans_path = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "fig7d | numa_locks | slo");
      ("--seed", Arg.Set_int seed, "benchmark seed (0 = committed configs)");
      ("--seconds", Arg.Set_float seconds, "measurement budget");
      ("--trace", Arg.Set_int trace, "1 = traced run with per-layer probes");
      ("--quick", Arg.Set quick, "reduced-size cells and probes");
      ("--limit-cells", Arg.Set_int limit, "run only the first N cells");
      ("--spans", Arg.Set_string spans_path, "write the traced run's spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  let quick = !quick in
  let cells = cells_of ~workload:!workload ~seed:!seed ~quick in
  let cells = if !limit > 0 then List.filteri (fun i _ -> i < !limit) cells else cells in
  let states =
    List.map
      (fun cell -> { cell; row = None; ops = 0; errors = []; times_ns = []; refs_ns = [] })
      cells
  in
  let budget_ns = int_of_float (!seconds *. 1e9) in
  let min_passes = if quick then 1 else 3 in
  let t_start = now_ns () in
  let extra =
    if !trace = 0 then begin
      (* The peak heap is read after the first pass of this fresh process,
         so it depends only on the cells, not on how many passes fit; the
         set-up reps follow it and count against the time budget. *)
      let top_heap_words = ref 0 and setup_sums = ref [] in
      let n =
        passes ~t_start ~min_passes ~budget_ns (fun i ->
            List.iter (fun st -> ignore (run_cell st)) states;
            if i = 0 then begin
              top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
              setup_sums :=
                setup_reps states ~min_reps:5 ~max_reps:200 ~budget_ns:1_000_000_000
            end)
      in
      [
        ("setup_rep_ns", json_ints (List.map fst !setup_sums));
        ("setup_ref_ns", json_ints (List.map snd !setup_sums));
        ("passes", Json.Int n);
        ("top_heap_words", Json.Int !top_heap_words);
      ]
    end
    else begin
      (* GC events are collected only during traced passes, not probes. *)
      Runtime_events.start ();
      Runtime_events.pause ();
      let probes = run_probes ~quick in
      (* Untraced and traced passes alternate, so the tracing overhead is
         measured under the same conditions as the run it is traced from. *)
      let untraced = ref [] and gc_rows = ref [] in
      let n =
        passes ~t_start ~min_passes:1 ~budget_ns (fun _ ->
            let sum = List.fold_left (fun acc st -> acc + run_cell st) 0 states in
            untraced := sum :: !untraced;
            Runtime_events.resume ();
            let cell_ns = ref 0 and setup_ns = ref 0 and gc_ns = ref 0 in
            let minor = ref 0.0 and promoted = ref 0.0 in
            let (), _, _ =
              with_span ~cat:"bench" !workload (fun () ->
                  List.iter
                    (fun st ->
                      let name = Json.to_string ~compact:true (Json.Obj st.cell.key) in
                      let _, dt, _ = with_span ~cat:"setup" ("setup " ^ name) (fun () -> run_setup st) in
                      setup_ns := !setup_ns + dt;
                      let s0 = Gc.quick_stat () in
                      let result, dt, gc = with_span ~cat:"cell" name (fun () -> call st) in
                      let s1 = Gc.quick_stat () in
                      record_run st result;
                      minor := !minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
                      promoted := !promoted +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
                      cell_ns := !cell_ns + dt;
                      gc_ns := !gc_ns + gc)
                    states)
            in
            Runtime_events.pause ();
            gc_rows :=
              Json.Obj
                [
                  ("cell_ns", Json.Int !cell_ns);
                  ("setup_ns", Json.Int !setup_ns);
                  ("gc_ns", Json.Int !gc_ns);
                  ("minor_words", Json.Float !minor);
                  ("promoted_words", Json.Float !promoted);
                ]
              :: !gc_rows)
      in
      ignore (poll_gc ());
      if !spans_path <> "" then begin
        let oc = open_out !spans_path in
        output_string oc (Json.to_string ~compact:true (trace_json ()));
        close_out oc
      end;
      [
        ("probes", Json.Obj probes);
        ("passes", Json.Int n);
        ("untraced_pass_ns", json_ints (List.rev !untraced));
        ("traced_passes", Json.List (List.rev !gc_rows));
        ("lost_events", Json.Int !lost_events);
      ]
    end
  in
  let cell_json st =
    Json.Obj
      [
        ("key", Json.Obj st.cell.key);
        ("row", match st.row with Some r -> Json.Obj r | None -> Json.Null);
        ("ops", Json.Int st.ops);
        ("errors", Json.List (List.rev_map (fun e -> Json.String e) st.errors));
        ("times_ns", json_ints (List.rev st.times_ns));
        ("refs_ns", json_ints (List.rev st.refs_ns));
      ]
  in
  let doc =
    Json.Obj
      ([
         ("workload", Json.String !workload);
         ("seed", Json.Int !seed);
         ("quick", Json.Bool quick);
         ("cells", Json.List (List.map cell_json states));
         ("word_bytes", Json.Int (Sys.word_size / 8));
       ]
      @ extra)
  in
  print_endline (Json.to_string ~compact:true doc)
