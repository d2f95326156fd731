(* Smoke tests for the registry's report printers and the TSV emitters:
   every printer renders its experiment's output without raising, and the
   .dat files are well-formed. Run on reduced-size experiments. *)

open Hurricane
open Locks
open Workloads

let buf_print f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let nonempty name s =
  Alcotest.(check bool) (name ^ " produced output") true (String.length s > 40)

(* Print the named registry entries' reports (section header and body). *)
let report ?knobs names =
  buf_print (fun ppf ->
      let entries =
        List.map (fun n -> Option.get (Experiments.find n)) names
      in
      Alcotest.(check (list string))
        "acceptance checks pass" []
        (Experiments.print_all ?knobs ppf entries))

let reduced = { Experiments.paper with procs = Some [ 1; 2 ]; iters = Some 10 }

let test_fig4_printer () = nonempty "fig4" (report [ "fig4" ])
let test_uncontended_printer () = nonempty "uncontended" (report [ "uncontended" ])

let test_fig5_printer () =
  let s = report ~knobs:reduced [ "fig5a" ] in
  nonempty "fig5" s;
  Alcotest.(check bool) "titled" true
    (Astring.String.is_infix
       ~affix:"FIG5a - lock response time under contention (hold 0us)" s)

let test_fig7_printer () =
  let s = report ~knobs:reduced [ "fig7a" ] in
  nonempty "fig7" s;
  Alcotest.(check bool) "states the paper's claim" true
    (Astring.String.is_infix ~affix:"paper: little difference up to p=4" s)

let test_constants_printer () = nonempty "constants" (report [ "constants" ])

let test_section_format () =
  let s = buf_print (fun ppf -> Report.section ppf "TITLE" "CLAIM") in
  Alcotest.(check bool) "has title" true
    (Astring.String.is_infix ~affix:"TITLE" s
    || String.length s > 0 && String.sub s 0 1 = "-")

let temp_dir () =
  let dir = Filename.temp_file "hurricane" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

(* A figure's export value on the reduced sweep, as [--dat] reads it. *)
let figure_json name =
  let doc, _ = Bench_json.document ~procs:[ 1; 2 ] ~iters:10 ~names:[ name ] () in
  Json.get (Json.get doc "experiments") name

let test_dat_files () =
  let path = Dat.figure (temp_dir ()) ~name:"t5" (figure_json "fig5a") in
  let ic = open_in path in
  let header = input_line ic in
  let row1 = input_line ic in
  let row2 = input_line ic in
  close_in ic;
  Alcotest.(check bool) "header is a comment" true (header.[0] = '#');
  let cols s = List.length (String.split_on_char '\t' s) in
  Alcotest.(check int) "columns = 1 + algorithms" (1 + 5) (cols row1);
  Alcotest.(check int) "rows consistent" (cols row1) (cols row2);
  Alcotest.(check bool) "x values" true
    (String.sub row1 0 1 = "1" && String.sub row2 0 1 = "2")

let test_dat_fig7 () =
  let path = Dat.figure (temp_dir ()) ~name:"t7" (figure_json "fig7a") in
  let ic = open_in path in
  let header = input_line ic in
  close_in ic;
  Alcotest.(check bool) "mentions the algorithms" true
    (Astring.String.is_infix ~affix:"H1-MCS" header
    && Astring.String.is_infix ~affix:"Spin" header)

let test_gnuplot_script () =
  let path = Dat.gnuplot_script (temp_dir ()) in
  Alcotest.(check bool) "written" true (Sys.file_exists path)

let test_measure_pp () =
  let stat = Eventsim.Stat.create "x" in
  Eventsim.Stat.add stat 160;
  let s =
    buf_print (fun ppf ->
        Measure.pp ppf (Measure.of_stat Hector.Config.hector ~label:"x" stat))
  in
  Alcotest.(check bool) "mentions the label" true
    (Astring.String.is_infix ~affix:"x" s);
  ignore Lock.Mcs_h2

(* -- the experiment registry ------------------------------------------------ *)

(* The 34 experiment names. The five exported experiments that had a
   separate text alias (numa, hash, abort-storm, crash-storm, rw) are named
   by their JSON key alone; the exported subset is listed in export
   order. *)
let bench_names =
  [ "fig4"; "uncontended"; "fig5a"; "fig5b"; "starvation"; "fig7a"; "fig7b";
    "fig7c"; "fig7d"; "constants"; "retries"; "ablation-granularity";
    "ablation-combining"; "ablation-cas"; "ablation-clh";
    "ablation-cached-locks"; "ablation-spin-then-block"; "ablation-lockfree";
    "ablation-layout"; "ablation-lock-family"; "trylock"; "classes"; "cow";
    "fs"; "fault-matrix"; "verify"; "obs"; "numa"; "hash"; "abort-storm";
    "crash-storm"; "rw"; "slo"; "adaptive" ]

let renamed = function
  | "numa" -> "numa_locks"
  | "hash" -> "hash_scaling"
  | "abort-storm" -> "abort_storm"
  | "crash-storm" -> "crash_storm"
  | "rw" -> "rw_scaling"
  | n -> n

let exported_names =
  [ "fig4"; "uncontended"; "fig5a"; "fig5b"; "starvation"; "fig7a"; "fig7b";
    "fig7c"; "fig7d"; "constants"; "numa_locks"; "hash_scaling";
    "abort_storm"; "crash_storm"; "rw_scaling"; "slo"; "adaptive" ]

let test_registry_shape () =
  let names = List.map Experiments.name Experiments.all in
  Alcotest.(check int) "34 entries" 34 (List.length names);
  Alcotest.(check int) "names unique" 34
    (List.length (List.sort_uniq compare names));
  Alcotest.(check (list string))
    "the bench experiments, renamed"
    (List.sort compare (List.map renamed bench_names))
    (List.sort compare names);
  Alcotest.(check (list string))
    "exported subset, in order" exported_names
    (List.map Experiments.name Experiments.exported);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " is not exportable") true
        (match Bench_json.document ~names:[ n ] () with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ "fig9000"; "retries"; "numa" ]

(* Each acceptance predicate ported from the CI export checks must hold on
   real rows and fail, by name, once one row is broken. *)
let fires (s : (_, 'r) Experiments.spec) rows check (break : 'r list -> 'r list) =
  Alcotest.(check (list string))
    (s.name ^ " real rows pass") []
    (Experiments.failures s rows);
  let name = s.name ^ ": " ^ check in
  Alcotest.(check bool) (name ^ " fires") true
    (List.mem name (Experiments.failures s (break rows)))

(* Apply [f] to the first row satisfying [p]. *)
let first ?(p = fun _ -> true) f rows =
  let rec go = function
    | [] -> Alcotest.fail "no row to break"
    | r :: tl when p r -> f r :: tl
    | r :: tl -> r :: go tl
  in
  go rows

let cells (s : ('c, 'r) Experiments.spec) picks =
  List.concat_map (fun i -> s.run Experiments.paper (List.nth s.cells i)) picks

let test_fig4_checks () =
  let s = Experiments.fig4 in
  fires s (Experiments.rows s) "matches_paper"
    (first (fun (r : Experiments.fig4_row) ->
         { r with ours = { r.ours with atomic = r.ours.atomic + 1 } }))

let test_abort_storm_checks () =
  let s = Experiments.abort_storm in
  let rows = cells s [ 0 ] in
  let fires = fires s rows in
  fires "final_free" (first (fun r -> { r with Abort_storm.final_free = false }));
  fires "aborts > 0" (first (fun r -> { r with Abort_storm.aborts = 0 }));
  fires "bound_ratio < 8"
    (first (fun r -> { r with Abort_storm.bound_ratio = 8.0 }))

let test_crash_storm_checks () =
  let s = Experiments.crash_storm in
  let rows = cells s [ 0 ] in
  let fires = fires s rows in
  fires "final_free" (first (fun r -> { r with Crash_storm.final_free = false }));
  fires "every kill recovered"
    (first (fun r -> { r with Crash_storm.kills = r.Crash_storm.kills + 1 }));
  fires "obs_recoveries >= kills"
    (first (fun r ->
         { r with Crash_storm.obs_recoveries = r.Crash_storm.kills - 1 }));
  fires "zero violations"
    (first (fun r -> { r with Crash_storm.lockdep_violations = 1 }))

let test_rw_scaling_checks () =
  let s = Experiments.rw_scaling in
  (* The mutex baseline and the distributed RW lock. *)
  let rows = cells s [ 0; 1 ] in
  let fires = fires s rows in
  let mutex (r : Rw_scaling.result) =
    match r.style with Rw_scaling.Mutex _ -> true | _ -> false
  in
  fires "zero violations"
    (first (fun r -> { r with Rw_scaling.lockdep_violations = 2 }));
  fires "mutex peak_readers = 1"
    (first ~p:mutex (fun r -> { r with Rw_scaling.peak_readers = 2 }));
  fires "shared peak_readers > 1"
    (first
       ~p:(fun r -> not (mutex r))
       (fun r -> { r with Rw_scaling.peak_readers = 1 }));
  fires "distributed read_remote = 0"
    (first
       ~p:(fun r -> not (mutex r))
       (fun r -> { r with Rw_scaling.read_remote = 1 }))

let test_slo_checks () =
  let s = Experiments.slo in
  let rows = cells s [ 0 ] in
  let fires = fires s rows in
  fires "completed > 0"
    (first (fun (c, r) -> (c, { r with Slo_stream.completed = 0 })));
  fires "read p99.9 > 0"
    (first (fun (c, (r : Slo_stream.result)) ->
         (c, { r with read_summary = { r.read_summary with Measure.p999_us = 0.0 } })));
  fires "zero violations"
    (first (fun (c, r) -> (c, { r with Slo_stream.lockdep_violations = 1 })))

let test_adaptive_checks () =
  let s = Experiments.adaptive in
  (* A static shape and the morphing lock itself. *)
  let rows = cells s [ 0; List.length s.cells - 1 ] in
  let fires = fires s rows in
  let morphing (r : Diurnal.result) =
    match r.algo with Lock.Adaptive _ -> true | _ -> false
  in
  fires "more than one row" (fun rows -> [ List.hd rows ]);
  fires "final_free" (first (fun r -> { r with Diurnal.final_free = false }));
  fires "zero violations"
    (first (fun r -> { r with Diurnal.lockdep_violations = 1 }));
  fires "Adaptive row present"
    (List.filter (fun r -> not (morphing r)));
  fires "morphs_up > 0"
    (first ~p:morphing (fun r -> { r with Diurnal.morphs_up = 0 }));
  fires "morphs_down > 0"
    (first ~p:morphing (fun r -> { r with Diurnal.morphs_down = 0 }))

let suite =
  [
    Alcotest.test_case "fig4 printer" `Quick test_fig4_printer;
    Alcotest.test_case "uncontended printer" `Quick test_uncontended_printer;
    Alcotest.test_case "fig5 printer" `Quick test_fig5_printer;
    Alcotest.test_case "fig7 printer" `Quick test_fig7_printer;
    Alcotest.test_case "constants printer" `Quick test_constants_printer;
    Alcotest.test_case "section format" `Quick test_section_format;
    Alcotest.test_case "fig5 .dat files" `Quick test_dat_files;
    Alcotest.test_case "fig7 .dat files" `Quick test_dat_fig7;
    Alcotest.test_case "gnuplot script" `Quick test_gnuplot_script;
    Alcotest.test_case "Measure.pp" `Quick test_measure_pp;
    Alcotest.test_case "registry shape" `Quick test_registry_shape;
    Alcotest.test_case "fig4 checks fire" `Quick test_fig4_checks;
    Alcotest.test_case "abort_storm checks fire" `Quick test_abort_storm_checks;
    Alcotest.test_case "crash_storm checks fire" `Quick test_crash_storm_checks;
    Alcotest.test_case "rw_scaling checks fire" `Quick test_rw_scaling_checks;
    Alcotest.test_case "slo checks fire" `Quick test_slo_checks;
    Alcotest.test_case "adaptive checks fire" `Quick test_adaptive_checks;
  ]
