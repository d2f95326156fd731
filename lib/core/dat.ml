(* TSV emitters for the figure series, for plotting.

   `bench/main.exe --dat DIR` writes one file per figure plus a gnuplot
   script that renders them; columns are tab-separated with a commented
   header, so any plotting tool can read them. The series are read from
   the figures' own JSON export values ({!Bench_json}), so the plotted
   numbers are the exported ones. *)

let write_file dir name lines =
  let path = Filename.concat dir name in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  path

let to_list = function Json.List l -> l | _ -> failwith "Dat: not a list"
let to_string = function Json.String s -> s | _ -> failwith "Dat: not a string"
let to_int = function Json.Int i -> i | _ -> failwith "Dat: not an int"
let to_float = function Json.Float f -> f | _ -> failwith "Dat: not a float"

(* One figure's series: x (FIG5's p, FIG7's x) vs mean latency per
   algorithm. *)
let figure dir ~name value =
  let key = if Json.member value "xlabel" = None then "p" else "x" in
  let series = to_list (Json.get value "series") in
  let algo s = to_string (Json.get s "algo") in
  let header = "# " ^ key ^ "\t" ^ String.concat "\t" (List.map algo series) in
  let xs =
    match series with
    | s :: _ ->
      List.map (fun pt -> to_int (Json.get pt key)) (to_list (Json.get s "points"))
    | [] -> []
  in
  let row x =
    string_of_int x
    ^ "\t"
    ^ String.concat "\t"
        (List.map
           (fun s ->
             let pt =
               (* Each series swept the same x values; a missing point means
                  a runner bug, and a bare [Not_found] from deep inside the
                  emitter names neither the figure nor the hole. *)
               try
                 List.find
                   (fun pt -> to_int (Json.get pt key) = x)
                   (to_list (Json.get s "points"))
               with Not_found ->
                 failwith
                   (Printf.sprintf "Dat.figure (%s): series %s has no point at %s=%d"
                      name (algo s) key x)
             in
             Printf.sprintf "%.2f" (to_float (Json.get pt "mean_us")))
           series)
  in
  write_file dir (name ^ ".dat") (header :: List.map row xs)

let gnuplot_script dir =
  let lines =
    [
      "# gnuplot script regenerating the paper's figures from the .dat files";
      "# usage: gnuplot plots.gp   (produces .svg next to the data)";
      "set datafile commentschars '#'";
      "set key top left";
      "set grid";
      "set style data linespoints";
      "set terminal svg size 720,480";
      "set ylabel 'response time (us)'";
      "";
      "set xlabel 'contending processors'";
      "do for [f in 'fig5a fig5b fig7a fig7b'] {";
      "  set output f.'.svg'";
      "  set title f";
      "  plot for [i=2:6] f.'.dat' using 1:i title columnheader(i)";
      "}";
      "";
      "set xlabel 'cluster size'";
      "do for [f in 'fig7c fig7d'] {";
      "  set output f.'.svg'";
      "  set title f";
      "  plot for [i=2:4] f.'.dat' using 1:i title columnheader(i)";
      "}";
    ]
  in
  write_file dir "plots.gp" lines

(* Run every figure and drop its data into [dir]. *)
let write_all dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let names = [ "fig5a"; "fig5b"; "fig7a"; "fig7b"; "fig7c"; "fig7d" ] in
  let doc, _ = Bench_json.document ~names () in
  let exps = Json.get doc "experiments" in
  List.map (fun name -> figure dir ~name (Json.get exps name)) names
  @ [ gnuplot_script dir ]
