(* Workload catalogue, metric catalogue and the measuring loop. *)

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

(* fail_frac is printed with the others but stays out of the result
   object's metrics: it is 0 on a healthy run, and the result object
   already carries it as failed / attempted. *)
let end_to_end =
  [ m "setup_s" "s"; m "inj_per_s" "1/s"; m "job_p50_s" "s"; m "peak_rss_mb" "MiB" ]

let per_layer =
  [ m "leon3.golden_s" "s"; m "leon3.golden_cycles_per_s" "1/s";
    m "rtl.oracle_inj_s" "s"; m "rtl.cycles" "count";
    m "analysis.static_s" "s"; m "analysis.pruned" "count"; m "analysis.collapsed" "count";
    m "fault.prepare_other_s" "s"; m "fault.prefiltered" "count"; m "fault.sim_frac" "frac";
    m "batch.self_s" "s"; m "batch.lanes" "count"; m "batch.passes" "count";
    m "batch.occupancy" "lanes"; m "batch.ejected" "count"; m "batch.node_evals" "count";
    m "batch.node_evals_per_s" "1/s";
    m "tail.watchdog_s" "s"; m "tail.dense_s" "s"; m "tail.watchdog_share" "frac";
    m "tail.cycle_proofs" "count"; m "tail.transplants" "count";
    m "seu.replay_evals" "count"; m "seu.eval_ratio" "frac"; m "seu.early_exits" "count";
    m "iss.instr_per_s" "1/s"; m "iss.direct_inj_s" "s";
    m "journal.merge_s" "s"; m "journal.records" "count";
    m "serve.submit_s" "s"; m "serve.queue_wait_s" "s"; m "serve.overhead_s" "s";
    m "serve.cache_hits" "count"; m "serve.cache_misses" "count";
    m "serve.golden_runs" "count"; m "serve.requeues" "count";
    m "gc.minor_mwords" "Mword"; m "gc.major_collections" "count";
    m "obs.overhead_frac" "frac" ]

type size = {
  gate_sites : int;
  seu_sites : int;  (** per program (seu-transient) *)
  iss_samples : int;  (** per program, per model *)
  checks : int;  (** dense-oracle re-runs (gate-slice) *)
  direct_checks : int;
      (** programs or specs per run whose whole campaign is re-run by
          the reference engine (seu-transient, iss-served) *)
}

let full = { gate_sites = 40; seu_sites = 40; iss_samples = 500; checks = 2; direct_checks = 1 }

let smoke = { gate_sites = 3; seu_sites = 3; iss_samples = 8; checks = 1; direct_checks = 6 }

(* why each exists, and why fig5-behav was dropped: README.md *)
let workloads = [ "gate-slice"; "seu-transient"; "iss-served" ]

let table1_names () = List.map (fun e -> e.Workloads.Suite.name) Workloads.Suite.table1_set

(* the serve daemon's directory and the trace files, inside the
   checkout the benchmark runs from *)
let state_dir = ".perfbench"

let make ~size ~campaign_seed = function
  | "gate-slice" ->
      Rtl_work.gate_slice ~sites:size.gate_sites ~campaign_seed ~checks:size.checks
  | "seu-transient" ->
      Rtl_work.seu_transient ~sites:size.seu_sites ~campaign_seed ~checks:size.direct_checks
  | "iss-served" ->
      Served.create ~programs:(table1_names ()) ~samples:size.iss_samples ~shards:2
        ~campaign_seed ~checks:size.direct_checks ~state_dir
  | w -> invalid_arg ("unknown workload " ^ w)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float) list;  (** untraced rounds; fail_frac included *)
  layers : (string * float) list;  (** traced run only: every per-layer metric *)
  self_times : (string * float) list;  (** traced run only: per span name, per traced round *)
  check_self_times : (string * float) list;  (** traced run only: the verdict check's spans *)
  trace_lines : string list;  (** traced run only: JSONL events *)
  round_walls : float list;  (** untraced timed rounds, in order *)
  slowdowns : float list;  (** their host slowdowns *)
}

let median_of name rounds =
  Work.median (List.filter_map (fun r -> List.assoc_opt name r.Work.layers) rounds)

(* job_p50_s: each job position of a round repeats the same campaign,
   so the median is taken per position and then averaged over
   positions; the median never mixes different campaigns. *)
let job_p50 rounds =
  match rounds with
  | [] -> 0.
  | r :: _ ->
      (Stats.Summary.of_list
         (List.init (Array.length r.Work.job_walls) (fun i ->
              Work.median (List.map (fun r -> r.Work.job_walls.(i)) rounds))))
        .Stats.Summary.mean

let run ~workload ~size ~seed ~campaign_seed ~seconds ~trace =
  let w = make ~size ~campaign_seed workload in
  let attempted = ref 0 and failed = ref 0 in
  let reference = ref None in
  let untraced = ref [] and traced = ref [] and trace_lines = ref [] and selfs = ref [] in
  let do_round ~traced:is_traced =
    let sp = if is_traced then Some (Spans.create ()) else None in
    attempted := !attempted + w.Work.jobs_per_round;
    match Work.gc_layers (fun () -> w.Work.round sp) with
    | r, gc ->
        (match sp with
        | Some sp ->
            Obs.flush (Spans.obs sp);
            trace_lines :=
              Printf.sprintf {|{"type":"round","workload":"%s","round":%d}|} workload
                (List.length !traced)
              :: List.rev_append (Spans.lines sp) !trace_lines;
            selfs := Spans.self_times sp :: !selfs
        | None -> ());
        (match !reference with
        | None -> reference := Some r.Work.verdicts
        | Some v when v = r.Work.verdicts -> ()
        | Some _ ->
            failed := !failed + w.Work.jobs_per_round;
            prerr_endline "a repeated round's verdicts differ from the first round's");
        Some { r with Work.layers = r.Work.layers @ gc }
    | exception e ->
        failed := !failed + w.Work.jobs_per_round;
        Printf.eprintf "round failed: %s\n%!" (Printexc.to_string e);
        None
  in
  let warmup = do_round ~traced:false in
  let deadline = Work.now () +. seconds in
  (* closed loop until the deadline, at least one round of each kind;
     a traced run alternates untraced and traced rounds *)
  let rec loop k =
    let tracing = trace && k mod 2 = 1 in
    if Work.now () < deadline || k < (if trace then 2 else 1) then begin
      (match do_round ~traced:tracing with
      | Some r -> if tracing then traced := r :: !traced else untraced := r :: !untraced
      | None -> ());
      loop (k + 1)
    end
  in
  if warmup <> None then loop 0;
  let check_sp = if trace then Some (Spans.create ()) else None in
  let check_self = ref [] in
  let mismatches, check_layers =
    if warmup = None then (0, [])
    else
      try w.Work.check ~seed check_sp
      with e ->
        Printf.eprintf "verdict check failed: %s\n%!" (Printexc.to_string e);
        (1, [])
  in
  (match check_sp with
  | Some sp ->
      Obs.flush (Spans.obs sp);
      trace_lines :=
        Printf.sprintf {|{"type":"check","workload":"%s"}|} workload
        :: List.rev_append (Spans.lines sp) !trace_lines;
      check_self := Spans.self_times sp
  | None -> ());
  (* every round reproduced the checked first round's verdicts, so a
     failed check fails them all *)
  if mismatches > 0 then failed := !attempted;
  let peak =
    try w.Work.finish ()
    with e ->
      Printf.eprintf "shutdown failed: %s\n%!" (Printexc.to_string e);
      failed := !attempted;
      0.
  in
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let setup = Work.median (List.concat_map (fun r -> r.Work.setups) untraced) in
  let total f = List.fold_left (fun a r -> a +. f r) 0. untraced in
  let end_to_end =
    [ ("setup_s", setup);
      ( "inj_per_s",
        Work.ratio
          (total (fun r -> float_of_int r.Work.injections))
          (total (fun r -> r.Work.wall)) );
      ("job_p50_s", job_p50 untraced);
      ("peak_rss_mb", peak);
      ("fail_frac", Work.ratio (float_of_int !failed) (float_of_int !attempted)) ]
  in
  let layers =
    if not trace then []
    else
      let wall rounds = Work.median (List.map (fun r -> r.Work.wall) rounds) in
      let value name =
        match name with
        | "obs.overhead_frac" -> Work.ratio (wall traced) (wall untraced) -. 1.
        | "gc.minor_mwords" | "gc.major_collections" -> median_of name untraced
        | _ -> (
            match List.assoc_opt name check_layers with
            | Some v -> v
            | None -> median_of name traced)
      in
      List.map (fun mt -> (mt.name, value mt.name)) per_layer
  in
  let self_times =
    let names = List.sort_uniq compare (List.concat_map (List.map fst) !selfs) in
    let rounds = float_of_int (max 1 (List.length traced)) in
    List.map
      (fun n ->
        let self l = Option.value (List.assoc_opt n l) ~default:0. in
        (n, List.fold_left (fun a l -> a +. self l) 0. !selfs /. rounds))
      names
  in
  { correct = !failed = 0 && warmup <> None;
    attempted = !attempted;
    failed = !failed;
    end_to_end;
    layers;
    self_times;
    check_self_times = !check_self;
    round_walls = List.map (fun r -> r.Work.wall) untraced;
    slowdowns = List.map (fun r -> r.Work.slowdown) untraced;
    trace_lines = List.rev !trace_lines }

let unit_of name =
  match List.find_opt (fun mt -> mt.name = name) (end_to_end @ per_layer) with
  | Some mt -> mt.unit_
  | None -> "frac"

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_json r ~trace =
  let metrics =
    List.map
      (fun mt ->
        let v =
          Option.value ~default:0.
            (List.assoc_opt mt.name (if trace then r.layers else r.end_to_end))
        in
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} mt.name (number v) mt.unit_)
      (if trace then per_layer else end_to_end)
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} r.correct
    r.attempted r.failed (String.concat ", " metrics)
