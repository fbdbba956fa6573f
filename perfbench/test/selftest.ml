(* Exact-count self-test of the campaign benchmark.  Runs every
   workload at smoke size twice, traced, and checks that

   - both runs are correct (no failed job, no verdict-check mismatch);
   - every end-to-end and per-layer metric is printed with the unit
     BENCHMARK.json declares, and BENCHMARK.json lists exactly the
     benchmark's workloads and metrics;
   - the deterministic counts repeat exactly: counts are exact, so any
     drift between two runs of the same inputs is a bug. *)

module B = Perfbench.Bench
module J = Obs.Json

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("FAIL: " ^ s))
    fmt

let exact_counts =
  [ "rtl.cycles"; "batch.lanes"; "fault.prefiltered"; "analysis.collapsed"; "seu.replay_evals";
    "journal.records"; "serve.golden_runs"; "serve.cache_misses" ]

(* the counts each workload must actually exercise (non-zero) *)
let exercised = function
  | "gate-slice" -> [ "rtl.cycles"; "batch.lanes" ]
  | "seu-transient" -> [ "seu.replay_evals" ]
  | "iss-served" -> [ "journal.records"; "serve.golden_runs"; "serve.cache_misses" ]
  | _ -> []

let read_file path = In_channel.with_open_bin path In_channel.input_all

let check_manifest () =
  match J.of_string (read_file "../../BENCHMARK.json") with
  | Error e -> fail "BENCHMARK.json does not parse: %s" e
  | Ok j ->
      let entries key =
        match J.member key j with Some (J.List l) -> l | _ -> fail "BENCHMARK.json: no %s" key; []
      in
      let str k e = Option.value (Option.bind (J.member k e) J.to_str) ~default:"" in
      let names key = List.map (str "name") (entries key) in
      if names "workloads" <> B.workloads then
        fail "BENCHMARK.json workloads differ from the benchmark's";
      let metrics key = List.map (fun e -> (str "name" e, str "unit" e)) (entries key) in
      let ours l = List.map (fun m -> (m.B.name, m.B.unit_)) l in
      if metrics "end_to_end" <> ours B.end_to_end then
        fail "BENCHMARK.json end_to_end metrics differ from the benchmark's";
      if metrics "per_layer" <> ours B.per_layer then
        fail "BENCHMARK.json per_layer metrics differ from the benchmark's"

(* the result line names every metric with its unit *)
let check_printed workload r =
  List.iter
    (fun (trace, metrics) ->
      let line = B.result_json r ~trace in
      match J.of_string line with
      | Error e -> fail "%s: result line does not parse: %s" workload e
      | Ok j ->
          let printed = match J.member "metrics" j with Some (J.Obj l) -> l | _ -> [] in
          if List.map fst printed <> List.map (fun m -> m.B.name) metrics then
            fail "%s: result line does not list exactly the %s metrics" workload
              (if trace then "per-layer" else "end-to-end");
          List.iter
            (fun m ->
              match List.assoc_opt m.B.name printed with
              | Some v when Option.bind (J.member "unit" v) J.to_str = Some m.B.unit_ -> ()
              | _ -> fail "%s: %s printed without unit %s" workload m.B.name m.B.unit_)
            metrics)
    [ (false, B.end_to_end); (true, B.per_layer) ]

let run_once workload =
  B.run ~workload ~size:B.smoke ~seed:1 ~campaign_seed:7 ~seconds:0. ~trace:true

let () =
  check_manifest ();
  List.iter
    (fun workload ->
      let a = run_once workload and b = run_once workload in
      List.iter
        (fun r ->
          if not r.B.correct then fail "%s: %d of %d jobs failed" workload r.B.failed r.B.attempted;
          check_printed workload r)
        [ a; b ];
      let count r name = Option.value (List.assoc_opt name r.B.layers) ~default:nan in
      List.iter
        (fun name ->
          if count a name <> count b name then
            fail "%s: %s drifted between identical runs: %.17g vs %.17g" workload name
              (count a name) (count b name))
        exact_counts;
      List.iter
        (fun name -> if not (count a name > 0.) then fail "%s: %s is not exercised" workload name)
        (exercised workload);
      Printf.printf "%s: %s\n%!" workload
        (String.concat ", "
           (List.map (fun n -> Printf.sprintf "%s=%.17g" n (count a n)) exact_counts)))
    B.workloads;
  if !failures > 0 then exit 1
