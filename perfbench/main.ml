(* The campaign benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1
            [--campaign-seed C]

   Runs one untimed warm-up round of workload W, then repeats identical
   rounds for S seconds (closed loop, one client), checks the verdicts
   against the dense reference engines, and prints the end-to-end
   metrics (--trace 0) or the per-layer split (--trace 1) as the last
   line: {"correct", "attempted", "failed", "metrics"}.  Exits 1 when
   any verdict check fails. *)

let usage () =
  prerr_endline
    ("usage: main.exe --workload (" ^ String.concat " | " Perfbench.Bench.workloads
   ^ ") --seed N --seconds S --trace 0|1 [--campaign-seed C]");
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k ~default =
    match get k with
    | None -> ( match default with Some d -> d | None -> usage ())
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let workload =
    match get "workload" with
    | Some w when List.mem w Perfbench.Bench.workloads -> w
    | _ -> usage ()
  in
  let seed = int "seed" ~default:None in
  let seconds = int "seconds" ~default:None in
  let trace = match int "trace" ~default:(Some 0) with 0 -> false | 1 -> true | _ -> usage () in
  (* the campaign site samples are the fixed reference campaign unless
     a held-out one is asked for; --seed drives the check sample *)
  let campaign_seed = int "campaign-seed" ~default:(Some 7) in
  (* a wedged daemon or engine must not hold the caller past its own
     time limit, and a stopped run must not leave the daemon behind:
     exit without a result (at_exit stops the daemon) *)
  let stop why =
    Sys.Signal_handle
      (fun _ ->
        prerr_endline ("perfbench: " ^ why);
        exit 1)
  in
  Sys.set_signal Sys.sigalrm (stop "run did not finish in time");
  Sys.set_signal Sys.sigterm (stop "terminated");
  Sys.set_signal Sys.sigint (stop "interrupted");
  ignore (Unix.alarm (seconds + 150));
  let r =
    Perfbench.Bench.run ~workload ~size:Perfbench.Bench.full ~seed ~campaign_seed
      ~seconds:(float_of_int seconds) ~trace
  in
  Printf.printf "workload %s, seed %d, campaign seed %d, %d s%s\n" workload seed campaign_seed
    seconds
    (if trace then ", traced" else "");
  Printf.printf "%d jobs attempted, %d failed\n" r.Perfbench.Bench.attempted
    r.Perfbench.Bench.failed;
  List.iter
    (fun (n, v) -> Printf.printf "  %-28s %14.6g %s\n" n v (Perfbench.Bench.unit_of n))
    r.Perfbench.Bench.end_to_end;
  let floats l = String.concat " " (List.map (Printf.sprintf "%.3f") l) in
  Printf.printf "timed untraced rounds, seconds: %s\n" (floats r.Perfbench.Bench.round_walls);
  Printf.printf "host slowdown over each round: %s\n" (floats r.Perfbench.Bench.slowdowns);
  if trace then begin
    print_endline "per-layer split (traced rounds; checks once per run):";
    List.iter
      (fun (n, v) -> Printf.printf "  %-28s %14.6g %s\n" n v (Perfbench.Bench.unit_of n))
      r.Perfbench.Bench.layers;
    print_endline "span self time, seconds per traced round (span minus covered child spans):";
    List.iter (fun (n, v) -> Printf.printf "  %-28s %14.6f\n" n v) r.Perfbench.Bench.self_times;
    print_endline "verdict check span self time, seconds:";
    List.iter
      (fun (n, v) -> Printf.printf "  %-28s %14.6f\n" n v)
      r.Perfbench.Bench.check_self_times;
    Perfbench.Served.mkdir_p Perfbench.Bench.state_dir;
    let path =
      Filename.concat Perfbench.Bench.state_dir
        (Printf.sprintf "trace-%s-%d.jsonl" workload seed)
    in
    let sink, close = Obs.file_sink path in
    List.iter sink r.Perfbench.Bench.trace_lines;
    close ();
    Printf.printf "trace: %s\n" path
  end;
  print_endline (Perfbench.Bench.result_json r ~trace);
  if not r.Perfbench.Bench.correct then exit 1
