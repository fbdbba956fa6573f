(* iss-served: ISS campaigns submitted to an in-process-forked `ricv
   serve` daemon by one closed-loop client connection.  The warm-up
   round submits each spec cold (golden-cache miss); every later round
   repeats the same specs and hits the cache.  The check compares each
   served verdict table with a direct Iss_campaign.run of the same
   spec.  Timings are divided by the host's slowdown, which a Probe
   thread of this process samples while the client waits. *)

module P = Serve.Protocol
module Iss_campaign = Fault_injection.Iss_campaign
module Journal = Fault_injection.Journal

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fail fmt = Printf.ksprintf failwith fmt

let ok_or what = function Ok v -> v | Error e -> fail "%s: %s" what e

(* Fork the daemon; the child never returns.  The benchmark uses no
   domains, so forking (here and in the daemon's workers) is allowed.
   On shutdown the daemon records the peak RSS of itself and of the
   workers it reaped; the benchmark's own getrusage(RUSAGE_CHILDREN)
   would also count the build that ran before it. *)
let start_daemon ~dir ~workers ~cache_capacity ~peak_file addr =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      (* its own process group, so [stop] also reaches its workers *)
      ignore (Unix.setsid ());
      (try ignore (Serve.Daemon.serve ~workers ~cache_capacity ~log:ignore ~dir addr)
       with _ -> Unix._exit 2);
      Out_channel.with_open_text peak_file (fun oc ->
          Printf.fprintf oc "%.17g\n" (Float.max (Rusage.self_mb ()) (Rusage.children_mb ())));
      Unix._exit 0
  | pid -> pid

let rec connect addr ~deadline =
  match Serve.Client.connect addr with
  | Ok c -> c
  | Error e ->
      if Unix.gettimeofday () > deadline then fail "daemon did not come up: %s" e;
      Unix.sleepf 0.02;
      connect addr ~deadline

let create ~programs ~samples ~shards ~campaign_seed ~checks ~state_dir =
  let dir = Filename.concat state_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  let addr = Serve.Daemon.Unix_sock (Filename.concat dir "ricv.sock") in
  let workers = 1 in
  let peak_file = Filename.concat state_dir (Printf.sprintf "serve-%d.peak" (Unix.getpid ())) in
  (* room for every spec plus a round's cold probes, so a probe never
     evicts a spec's preparation *)
  let cache_capacity = 2 * List.length programs + 2 in
  let pid = start_daemon ~dir ~workers ~cache_capacity ~peak_file addr in
  let alive = ref true in
  let stop () =
    if !alive then begin
      alive := false;
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      rm_rf dir
    end
  in
  at_exit stop;
  Probe.start_beside ();
  let client = connect addr ~deadline:(Unix.gettimeofday () +. 30.) in
  let specs =
    List.map
      (fun name ->
        { (P.default_spec ~engine:P.Iss ~workload:name) with
          P.samples;
          seed = campaign_seed;
          shards })
      programs
  in
  let injections_per_job = samples * List.length Iss_campaign.all_models in
  (* the spec whose direct run gives the iss.* and serve.overhead_s
     figures: fixed by the campaign seed, so they do not move with
     --seed *)
  let measured = List.hd (Work.pick ~seed:campaign_seed 1 specs) in
  let measured_walls = ref [] in
  let first = ref None and probes = ref [] and probe_seed = ref (campaign_seed + 1_000_000) in
  let cold_probe tr spec =
    incr probe_seed;
    let p = { spec with P.samples = 1; seed = !probe_seed; shards = 1 } in
    Spans.within tr "serve.probe" (fun () ->
        let (_, hit), dt = Work.timed (fun () -> ok_or "submit" (Serve.Client.submit client p)) in
        if hit then fail "cold probe of %s hit the cache" spec.P.workload;
        let table, _ = ok_or "wait" (Serve.Client.wait_done client) in
        probes := (p, table) :: !probes;
        dt)
  in
  let round tr =
    let m = Probe.mark () in
    let walls = ref [] and submits = ref [] and tables = ref [] in
    let merge_s = ref 0. and records = ref 0 and waits = ref [] in
    List.iter
      (fun spec ->
        let t0 = Unix.gettimeofday () in
        let id, _hit =
          Spans.within tr "serve.submit" (fun () ->
              ok_or "submit" (Serve.Client.submit client spec))
        in
        let t1 = Unix.gettimeofday () in
        let first_progress = ref None in
        let on_progress ~shard:_ ~done_:_ ~total:_ =
          if !first_progress = None then first_progress := Some (Unix.gettimeofday ())
        in
        let table, requeues =
          Spans.within tr "serve.wait" (fun () ->
              ok_or "wait" (Serve.Client.wait_done ~on_progress client))
        in
        let t2 = Unix.gettimeofday () in
        if requeues > 0 then fail "job %d requeued %d times" id requeues;
        walls := (t2 -. t0) :: !walls;
        if tr <> None && spec == measured then measured_walls := (t2 -. t0) :: !measured_walls;
        submits := (t1 -. t0) :: !submits;
        waits := (Option.value !first_progress ~default:t2 -. t1) :: !waits;
        tables := (spec, table) :: !tables;
        if tr <> None then begin
          (* the daemon's own merge, re-done from outside on the
             finished job's shard journals *)
          let job_dir = Filename.concat dir (Printf.sprintf "job-%d" id) in
          let merged, dt =
            Work.timed (fun () ->
                Spans.within tr "journal.merge" (fun () ->
                    let shards =
                      List.init shards (fun k ->
                          ok_or "journal"
                            (Journal.load
                               (Filename.concat job_dir (Printf.sprintf "shard-%d.jsonl" (k + 1)))))
                    in
                    snd (ok_or "merge" (Journal.merge shards))))
          in
          merge_s := !merge_s +. dt;
          records := !records + List.length merged
        end)
      specs;
    let tables = List.rev !tables in
    if !first = None then first := Some tables;
    (* after the timed jobs, so they stay out of the other metrics *)
    let setups = List.map (cold_probe tr) specs in
    (* the work ran in the daemon's workers; the host probe sampled
       beside them, from a thread of this process *)
    let slowdown = Probe.slowdown m in
    let job_walls = Array.of_list (List.rev_map (fun w -> w /. slowdown) !walls) in
    let layers =
      match tr with
      | None -> []
      | Some _ ->
          [ ("serve.submit_s", Work.median !submits);
            ("serve.queue_wait_s", Work.median !waits);
            ("journal.merge_s", !merge_s /. float_of_int (List.length specs));
            ("journal.records", float_of_int !records) ]
    in
    { Work.wall = Array.fold_left ( +. ) 0. job_walls;
      slowdown;
      job_walls;
      setups = List.map (fun s -> s /. slowdown) setups;
      injections = injections_per_job * List.length specs;
      verdicts = Work.digest (List.concat_map (fun (spec, t) -> spec.P.workload :: t) tables);
      layers }
  in
  let direct_table tr spec =
    let e = Workloads.Suite.find spec.P.workload in
    let prog = e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations ~dataset:0 in
    let config =
      { Iss_campaign.default_config with
        Iss_campaign.samples_per_model = spec.P.samples;
        hang_factor = spec.P.hang_factor;
        seed = spec.P.seed }
    in
    let prepared = Iss_campaign.prepare ~config prog in
    let (summaries, _), dt =
      Work.timed (fun () ->
          Spans.within tr "iss.direct" (fun () -> Iss_campaign.run ~config ~prepared prog))
    in
    (prog, Serve.Render.iss_summary_lines summaries, dt)
  in
  (* a direct run costs about twice a served job, so each run checks
     [checks] specs drawn by --seed (over many seeds every spec is
     covered) and every cold probe, which is cheap; a traced run also
     runs the measured spec directly *)
  let check ~seed tr =
    let mismatches = ref 0 in
    let compare_table spec served direct =
      if served <> Some direct then begin
        incr mismatches;
        Printf.eprintf "%s: served table differs from the direct run:\n%s\n--- direct:\n%s\n%!"
          spec.P.workload
          (String.concat "\n" (Option.value served ~default:[]))
          (String.concat "\n" direct)
      end
    in
    let served = Option.value !first ~default:[] in
    let checked = Work.pick ~seed checks specs in
    List.iter
      (fun spec ->
        let _, table, _ = direct_table None spec in
        compare_table spec (List.assoc_opt spec served) table)
      checked;
    List.iter
      (fun (p, table) ->
        let _, direct, _ = direct_table None p in
        compare_table p (Some table) direct)
      !probes;
    let layers =
      match tr with
      | None -> []
      | Some _ ->
          (* the median of three direct runs, as the served side is a
             median over the traced rounds *)
          let runs = List.init 3 (fun _ -> direct_table tr measured) in
          let prog, table, _ = List.hd runs in
          let direct_s = Work.median (List.map (fun (_, _, dt) -> dt) runs) in
          compare_table measured (List.assoc_opt measured served) table;
          (* one execution takes under a millisecond: repeat it for a
             fifth of a second *)
          let rec execute instructions exec_s =
            if exec_s >= 0.2 then (instructions, exec_s)
            else
              let r, dt =
                Work.timed (fun () ->
                    Spans.within tr "iss.execute" (fun () -> Iss.Emulator.execute prog))
              in
              execute (instructions + r.Iss.Emulator.instructions) (exec_s +. dt)
          in
          let instructions, exec_s = execute 0 0. in
          let jint name j =
            Option.value (Option.bind (Obs.Json.member name j) Obs.Json.to_int) ~default:0
          in
          let st = ok_or "status" (Serve.Client.status client) in
          [ ("iss.instr_per_s", Work.ratio (float_of_int instructions) exec_s);
            ("iss.direct_inj_s", direct_s /. float_of_int injections_per_job);
            (* the same spec, served (traced rounds) and run directly *)
            ("serve.overhead_s", Work.median !measured_walls -. direct_s);
            ("serve.cache_hits", float_of_int (jint "cache_hits" st));
            ("serve.cache_misses", float_of_int (jint "cache_misses" st));
            ("serve.golden_runs", float_of_int (jint "golden_runs" st));
            ("serve.requeues", float_of_int (jint "requeues" st)) ]
    in
    (!mismatches, layers)
  in
  let finish () =
    ignore (Serve.Client.shutdown client);
    Serve.Client.close client;
    let status = try Some (snd (Unix.waitpid [] pid)) with Unix.Unix_error _ -> None in
    alive := false;
    rm_rf dir;
    if status <> Some (Unix.WEXITED 0) then fail "daemon exited abnormally";
    let peak =
      try In_channel.with_open_text peak_file input_line |> float_of_string
      with Sys_error _ | End_of_file | Failure _ -> fail "daemon recorded no peak RSS"
    in
    Sys.remove peak_file;
    peak
  in
  { Work.jobs_per_round = List.length specs; round; check; finish }
