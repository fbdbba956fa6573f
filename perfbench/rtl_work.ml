(* The RTL workloads.  gate-slice: stuck-at/open-line campaigns on the
   gate-level IU running rspeed at one iteration; its check re-runs a
   sample of the first round's verdicts through the dense scalar
   oracle.  seu-transient: one-cycle upsets with event replay on the
   behavioural IU over the Table-1 programs; its check runs the same
   upsets densely.  Every round repeats the same campaigns on the same
   sampled sites, and its timings are divided by the host's slowdown
   over the round (Probe).  The peak RSS reported is the one after the
   first (warm-up) round: the memory one job needs in a fresh process.
   Later rounds add heap growth that varies with how many of them fit in
   the run, and the checks run other engines on other programs. *)

module Campaign = Fault_injection.Campaign
module Injection = Fault_injection.Injection
module Journal = Fault_injection.Journal
module C = Rtl.Circuit

let program_name = "rspeed"

let program () =
  (Workloads.Suite.find program_name).Workloads.Suite.build ~iterations:1 ~dataset:0

let system ~gate =
  Leon3.System.create ~params:{ Leon3.Core.default_params with Leon3.Core.gate_level = gate } ()

let outcome_name = function
  | Journal.Silent -> "silent"
  | Journal.Failure (Journal.Wrong_write i) -> Printf.sprintf "wrong_write:%d" i
  | Journal.Failure (Journal.Missing_writes i) -> Printf.sprintf "missing_writes:%d" i
  | Journal.Failure (Journal.Trap c) -> Printf.sprintf "trap:%d" c
  | Journal.Failure Journal.Hang -> "hang"

let verdict_line (r : Journal.run_result) =
  Printf.sprintf "%s %s %s %s %d" r.Journal.site_name (C.fault_model_name r.Journal.model)
    (outcome_name r.Journal.outcome)
    (match r.Journal.detect_cycle with Some c -> string_of_int c | None -> "-")
    r.Journal.inject_cycle

let summary_line name (s : Campaign.summary) =
  Printf.sprintf "%s %d %d %d %d %d %d %d %.17g" name s.Campaign.injections s.Campaign.failures
    s.Campaign.wrong_writes s.Campaign.missing_writes s.Campaign.traps s.Campaign.hangs
    s.Campaign.max_latency s.Campaign.mean_latency

let sum_injections summaries =
  List.fold_left (fun a (_, s) -> a + s.Campaign.injections) 0 summaries

(* ---- gate-slice: one job = Campaign.prepare + Campaign.run
   ~prepared ---- *)

let permanent_layers sp ~wall =
  let obs = Spans.obs sp in
  let c = Work.counter obs and s = Obs.span_total obs in
  let self name = Option.value (List.assoc_opt name (Spans.self_times sp)) ~default:0. in
  let watchdog = s "tail.watchdog" and dense = s "tail.dense" in
  (* what Campaign.run spends outside its site sampling (its child
     span), prefiltered and converged runs, the scalar continuation of
     ejected lanes (tail.watchdog) and the dense tail inside the passes:
     the bit-parallel passes plus the campaign's own bookkeeping *)
  let batch_self = self "fault.run" -. s "prefilter" -. s "converge" -. watchdog -. dense in
  let evals = c "diff.nodes_evaluated" in
  [ ("analysis.static_s", s "static_analysis" +. s "static.graph");
    ("analysis.pruned", c "static.pruned");
    ("analysis.collapsed", c "static.collapsed");
    ("fault.prepare_other_s", self "fault.prepare");
    ("fault.prefiltered", c "prefiltered");
    ("fault.sim_frac", Work.ratio (c "simulated") (c "injections"));
    ("batch.self_s", batch_self);
    ("batch.lanes", c "batch.lanes");
    ("batch.passes", c "batch.passes");
    ("batch.occupancy", Work.ratio (c "batch.lanes") (c "batch.passes"));
    ("batch.ejected", c "batch.ejected");
    ("batch.node_evals", evals);
    ("batch.node_evals_per_s", Work.ratio evals batch_self);
    ("tail.watchdog_s", watchdog);
    ("tail.dense_s", dense);
    ("tail.watchdog_share", Work.ratio (watchdog +. dense) wall);
    ("tail.cycle_proofs", c "tail.cycle_proofs");
    ("tail.transplants", c "tail.transplants") ]

(* Dense-oracle check: [run_one] against a golden with no coverage,
   trace or checkpoints exercises none of the prefilter, static,
   replay, batch or tail layers, so it must reproduce every verdict
   they produced.  [checks] verdicts drawn by --seed are compared; a
   traced run also times [checks] verdicts drawn by the campaign seed,
   so the rtl.* figures stay put when --seed moves. *)
let oracle_check ~sys ~prog ~config ~target ~checks ~seed tr results =
  let obs = Spans.obs_of tr in
  let pool = Hashtbl.create 4096 in
  List.iter
    (fun site -> Hashtbl.replace pool site.Injection.site_name site)
    (Injection.sites (Leon3.System.core sys) target);
  let golden =
    Spans.within tr "leon3.golden" (fun () ->
        Campaign.golden_run ~obs sys prog ~max_cycles:5_000_000)
  in
  let mismatches = ref 0 in
  let oracle ~obs r =
    let o =
      Campaign.run_one ~obs sys prog golden ~inject_cycle:config.Campaign.inject_cycle
        ~hang_factor:config.Campaign.hang_factor
        (Hashtbl.find pool r.Journal.site_name)
        r.Journal.model
    in
    if verdict_line o <> verdict_line r then begin
      incr mismatches;
      Printf.eprintf "verdict mismatch: campaign %S, dense oracle %S\n%!" (verdict_line r)
        (verdict_line o)
    end
  in
  List.iter (oracle ~obs:Obs.null) (Work.pick ~seed checks results);
  let layers =
    match tr with
    | None -> []
    | Some sp ->
        let measured = Work.pick ~seed:config.Campaign.seed checks results in
        Leon3.System.set_obs sys obs;
        let before = Obs.counter obs "rtl.cycles" in
        List.iter (fun r -> Spans.within tr "rtl.oracle" (fun () -> oracle ~obs r)) measured;
        let cycles = Obs.counter obs "rtl.cycles" - before in
        Leon3.System.set_obs sys Obs.null;
        let s = Obs.span_total (Spans.obs sp) in
        [ ("leon3.golden_s", s "leon3.golden");
          ( "leon3.golden_cycles_per_s",
            Work.ratio (float_of_int golden.Campaign.cycles) (s "leon3.golden") );
          ("rtl.oracle_inj_s", Work.ratio (s "rtl.oracle") (float_of_int (List.length measured)));
          ("rtl.cycles", float_of_int cycles) ]
  in
  (!mismatches, layers)

(* jobs per round: a round's set-up sample is the mean over its
   preparations, so no sub-second preparation is timed alone *)
let jobs = 2

let gate_slice ~sites ~campaign_seed ~checks =
  let sys = system ~gate:true and prog = program () in
  let target = Injection.Iu in
  let config =
    { Campaign.default_config with Campaign.sample_size = Some sites; seed = campaign_seed }
  in
  let first = ref None and peak = ref 0. in
  (* host seconds of the job and of its preparation, the probe's own
     passes taken out *)
  let job tr =
    let obs = Spans.obs_of tr in
    let m0 = Probe.mark () and t0 = Work.now () in
    let prepared =
      Spans.within tr "fault.prepare" (fun () -> Campaign.prepare ~config ~obs sys prog target)
    in
    let m1 = Probe.mark () and t1 = Work.now () in
    let summaries, rs =
      Spans.within tr "fault.run" (fun () -> Campaign.run ~config ~obs ~prepared sys prog target)
    in
    let t2 = Work.now () in
    (match !first with None -> first := Some rs | Some _ -> ());
    let in_prepare = Probe.overhead m0 -. Probe.overhead m1 in
    ( t2 -. t0 -. Probe.overhead m0,
      t1 -. t0 -. in_prepare,
      sum_injections summaries,
      List.map verdict_line rs )
  in
  Probe.start ();
  let round tr =
    let m = Probe.mark () and t0 = Work.now () in
    let js = List.init jobs (fun _ -> job tr) in
    let host_wall = Work.now () -. t0 in
    let slowdown = Probe.slowdown m in
    let job_walls = Array.of_list (List.map (fun (w, _, _, _) -> w /. slowdown) js) in
    let setup =
      List.fold_left (fun a (_, p, _, _) -> a +. p) 0. js /. float_of_int jobs /. slowdown
    in
    if !peak = 0. then peak := Rusage.self_mb ();
    { Work.wall = Array.fold_left ( +. ) 0. job_walls;
      slowdown;
      job_walls;
      setups = [ setup ];
      injections = List.fold_left (fun a (_, _, n, _) -> a + n) 0 js;
      verdicts = Work.digest (List.concat_map (fun (_, _, _, l) -> l) js);
      layers = (match tr with Some sp -> permanent_layers sp ~wall:host_wall | None -> []) }
  in
  let check ~seed tr =
    oracle_check ~sys ~prog ~config ~target ~checks ~seed tr (Option.value !first ~default:[])
  in
  { Work.jobs_per_round = jobs; round; check; finish = (fun () -> !peak) }

(* ---- seu-transient: one job = Campaign.run_transient on each
   Table-1 program ---- *)

let seu_transient ~sites ~campaign_seed ~checks =
  let sys = system ~gate:false in
  let programs =
    List.map
      (fun e ->
        ( e.Workloads.Suite.name,
          e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations ~dataset:0 ))
      Workloads.Suite.table1_set
  in
  let transient ?(dense = false) ~obs (name, prog) =
    summary_line name
      (Campaign.run_transient ~sample:sites ~seed:campaign_seed ~trim:(not dense)
         ~event:(not dense) ~obs sys prog Injection.Iu)
  in
  let first = ref None and peak = ref 0. in
  Probe.start ();
  let round tr =
    (* run_transient prepares inside: in an untraced round an
       aggregate-only collector reads its golden-run and site-sampling
       spans as the set-up time *)
    let obs = match tr with Some sp -> Spans.obs sp | None -> Obs.create () in
    let m = Probe.mark () and t0 = Work.now () in
    let lines =
      List.map (fun p -> Spans.within tr "fault.transient" (fun () -> transient ~obs p)) programs
    in
    let host_wall = Work.now () -. t0 in
    let slowdown = Probe.slowdown m in
    let wall = (host_wall -. Probe.overhead m) /. slowdown in
    (match !first with None -> first := Some lines | Some _ -> ());
    if !peak = 0. then peak := Rusage.self_mb ();
    let c = Work.counter obs and s = Obs.span_total obs in
    { Work.wall;
      slowdown;
      job_walls = [| wall |];
      setups = [ (s "golden" +. s "site_sampling") /. slowdown ];
      injections = int_of_float (c "injections");
      verdicts = Work.digest lines;
      layers =
        (match tr with
        | None -> []
        | Some _ ->
            [ ("seu.replay_evals", c "diff.nodes_evaluated");
              ("seu.eval_ratio", Work.ratio (c "diff.nodes_evaluated") (c "diff.golden_evaluated"));
              ("seu.early_exits", c "early_exits") ]) }
  in
  (* the oracle is the same upsets (sites and instants) run with
     trimming and replay off; it costs more than a round, so each run
     checks [checks] programs drawn by --seed *)
  let check ~seed _tr =
    let reference = Option.value !first ~default:[] in
    let mismatches = ref 0 in
    List.iter
      (fun p ->
        let dense = transient ~dense:true ~obs:Obs.null p in
        if not (List.mem dense reference) then begin
          incr mismatches;
          Printf.eprintf "transient summary mismatch: dense oracle %S, campaign %S\n%!" dense
            (String.concat " | " reference)
        end)
      (Work.pick ~seed checks programs);
    (!mismatches, [])
  in
  { Work.jobs_per_round = 1; round; check; finish = (fun () -> !peak) }
