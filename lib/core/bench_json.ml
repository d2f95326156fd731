(* JSON benchmark export (schema in bench_json.mli). Every exported
   experiment is an {!Experiments} entry with a JSON encoder; the encoder
   works from the same rows the text report prints, so the file and the
   tables can never disagree.

   [document ~jobs] runs the cells of all requested entries — one value of
   each entry's outermost sweep axis, each building its own
   Engine/Machine/Rng from a fixed seed — through {!Par.map}, and hands
   every entry its rows concatenated in cell order, which is the
   sequential sweep order: the parallel export is byte-identical to the
   sequential one. *)

(* Version 2: added the "numa_locks" experiment (cross-cluster contention
   with local/remote hand-off counts and worst-case waits).
   Version 3: added the "hash_scaling" experiment (sharded hash table +
   seqlock optimistic reads: throughput and read/update latency per
   granularity x shard count x read ratio x p).
   Version 4: added the "abort_storm" experiment (timed abandonment under
   a planted cross-cluster holder stall: overshoot distribution, worst
   return/timeout ratio, recovery latency and per-cluster abort counts
   per abortable algorithm).
   Version 5: added the "crash_storm" experiment (fail-stop kills planted
   mid-critical-section: conservation, lockdep-legalised recovery
   transfers, kill-to-forced-release latency per algorithm and worst
   cluster).
   Version 6: added the "rw_scaling" experiment (read-mostly lookups:
   distributed RW lock vs its centralised baseline vs seqlock vs
   per-cluster replication, with reader-parallelism peaks and remote
   read-path traffic) and the "p999_us" field in every latency summary.
   Version 7: added the "slo" experiment (open-loop request stream over
   the sharded million-element table: offered vs achieved rate,
   arrival-to-completion p50/p99/p99.9 per offered load, peak backlog,
   zero lockdep violations). All pre-v7 experiment values unchanged.
   Version 8: added the "adaptive" experiment (the diurnal load cycle:
   per-phase throughput of the morphing lock against every static shape,
   with observer-counted promotions/demotions and the final shape gauge).
   All pre-v8 experiment values unchanged.
   Version 9: "adaptive" became "diurnal" when the morphing lock was
   retired: the same six static rows without the morphs_up, morphs_down
   and final_shape fields. All other experiment values unchanged. *)
let schema_version = 9

(* The named entries (every exported one when [names] is empty), resolved
   before any cell runs so an unknown name fails without burning
   simulation time. *)
let resolve names =
  if names = [] then Experiments.exported
  else
    List.map
      (fun n ->
        match Experiments.find n with
        | Some (Experiments.E { json = Some _; _ } as e) -> e
        | _ ->
          invalid_arg
            (Printf.sprintf "Bench_json.document: unknown experiment %S" n))
      names

(* An entry's cells as jobs that fill one slot each, plus the step that
   encodes the concatenated rows and evaluates the entry's checks once
   every job has run. Each job writes only its own slot and
   {!Par.map} joins every domain before [finish] reads them. *)
let stage knobs (Experiments.E s) =
  let slots = Array.make (List.length s.cells) [] in
  let jobs = List.mapi (fun i c () -> slots.(i) <- s.run knobs c) s.cells in
  let finish () =
    let rows = List.concat (Array.to_list slots) in
    ((s.name, (Option.get s.json) rows), Experiments.failures s rows)
  in
  (jobs, finish)

let document ?procs ?sizes ?iters ?rounds ?(jobs = 1) ~names () =
  let knobs = { Experiments.procs; sizes; iters; rounds } in
  let staged = List.map (stage knobs) (resolve names) in
  ignore (Par.map ~jobs (fun job -> job ()) (List.concat_map fst staged));
  let experiments, failures = List.split (List.map (fun (_, f) -> f ()) staged) in
  ( Json.Obj
      [
        ("schema_version", Json.Int schema_version);
        ("config", Json.String "hector");
        ("units", Json.Obj [ ("latency", Json.String "us") ]);
        ("experiments", Json.Obj experiments);
      ],
    List.concat failures )

(* The written file's own contract, read back from disk: the schema
   version, the latency unit, and every requested experiment present. *)
let schema_ok ~names path =
  let doc = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  let exps = Json.member doc "experiments" in
  Json.member doc "schema_version" = Some (Json.Int schema_version)
  && Option.bind (Json.member doc "units") (fun u -> Json.member u "latency")
     = Some (Json.String "us")
  && List.for_all
       (fun e ->
         Option.bind exps (fun x -> Json.member x (Experiments.name e)) <> None)
       (resolve names)

let export ?jobs ~path ~names () =
  let doc, failures = document ?jobs ~names () in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  if schema_ok ~names path then failures
  else failures @ [ path ^ ": schema" ]
