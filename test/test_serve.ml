(* Tests for the campaign service: wire protocol, golden-trace cache,
   persistent job queue, the forked-worker scheduler (including
   requeue-on-crash byte-identity) and the daemon over a real Unix
   socket. *)

module P = Serve.Protocol
module Json = Obs.Json
module Campaign = Fault_injection.Campaign
module Iss_campaign = Fault_injection.Iss_campaign
module Injection = Fault_injection.Injection
module Journal = Fault_injection.Journal

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_lines = Alcotest.(check (list string))

let ok_or_fail = function Ok v -> v | Error e -> Alcotest.fail e

let temp_dir () =
  let d = Filename.temp_file "ricv_serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let d = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf d with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f d)

(* The direct-run table a served campaign must reproduce byte for
   byte: same config derivation as the scheduler, same renderer as
   `ricv campaign` / `ricv iss-campaign`. *)
let build_prog (spec : P.spec) =
  let e = Workloads.Suite.find spec.P.workload in
  let iterations =
    match spec.P.iterations with
    | Some n -> n
    | None -> e.Workloads.Suite.default_iterations
  in
  e.Workloads.Suite.build ~iterations ~dataset:spec.P.dataset

let direct_rtl_table (spec : P.spec) =
  let config =
    { Campaign.default_config with
      Campaign.sample_size = Some spec.P.samples;
      hang_factor = spec.P.hang_factor;
      seed = spec.P.seed }
  in
  let target = match spec.P.target with "cmem" -> Injection.Cmem | _ -> Injection.Iu in
  let summaries, _ =
    Campaign.run ~config (Leon3.System.create ()) (build_prog spec) target
  in
  Serve.Render.rtl_summary_lines summaries

let direct_iss_table (spec : P.spec) =
  let config =
    { Iss_campaign.default_config with
      Iss_campaign.samples_per_model = spec.P.samples;
      hang_factor = spec.P.hang_factor;
      seed = spec.P.seed }
  in
  let summaries, _ = Iss_campaign.run ~config (build_prog spec) in
  Serve.Render.iss_summary_lines summaries

let rtl_spec =
  { (P.default_spec ~engine:P.Rtl ~workload:"rspeed") with
    P.iterations = Some 1;
    samples = 12;
    shards = 2 }

(* ---- protocol ---- *)

let test_protocol_roundtrip () =
  let spec = { rtl_spec with P.gate = true; dataset = 1; target = "cmem" } in
  (match P.spec_of_json (P.spec_to_json spec) with
  | Ok spec' -> check_bool "spec round-trips" true (spec = spec')
  | Error e -> Alcotest.fail e);
  (* omitted optional fields take the direct commands' defaults *)
  (match P.spec_of_json (Json.Obj [ ("engine", Json.Str "iss"); ("workload", Json.Str "rspeed") ]) with
  | Ok s ->
      check_bool "defaults" true (s = P.default_spec ~engine:P.Iss ~workload:"rspeed");
      check_int "iss default samples" 400 s.P.samples
  | Error e -> Alcotest.fail e);
  List.iter
    (fun req ->
      match P.parse_request (P.request_to_string req) with
      | Ok req' -> check_bool "request round-trips" true (req = req')
      | Error e -> Alcotest.fail e)
    [ P.Submit { spec; wait = true };
      P.Submit { spec; wait = false };
      P.Status None;
      P.Status (Some 3);
      P.Watch 7;
      P.Shutdown ]

let test_protocol_rejects () =
  List.iter
    (fun (label, line) ->
      check_bool label true (Result.is_error (P.parse_request line)))
    [ ("garbage", "not json at all");
      ("missing op", {|{"foo": 1}|});
      ("unknown op", {|{"op": "explode"}|});
      ("submit without spec", {|{"op": "submit"}|});
      ("submit without engine", {|{"op": "submit", "spec": {"workload": "rspeed"}}|});
      ("oversized", {|{"op": "status", "pad": "|}
                    ^ String.make P.max_request_bytes 'x' ^ {|"}|}) ];
  let base = P.default_spec ~engine:P.Rtl ~workload:"rspeed" in
  List.iter
    (fun (label, spec) ->
      check_bool label true (Result.is_error (P.validate_spec spec)))
    [ ("unknown workload", { base with P.workload = "nope" });
      ("bad target", { base with P.target = "mmu" });
      ("zero samples", { base with P.samples = 0 });
      ("zero iterations", { base with P.iterations = Some 0 });
      ("negative dataset", { base with P.dataset = -1 });
      ("zero hang factor", { base with P.hang_factor = 0 });
      ("zero shards", { base with P.shards = 0 });
      ("too many shards", { base with P.shards = P.max_shards + 1 }) ];
  check_bool "valid spec accepted" true (Result.is_ok (P.validate_spec base))

(* ---- golden-trace cache ---- *)

let test_cache_key () =
  let spec = rtl_spec in
  let key = Serve.Cache.key ~prog_hash:42 in
  check_bool "shards excluded from the key" true
    (key spec = key { spec with P.shards = 7 });
  check_bool "seed in the key" true (key spec <> key { spec with P.seed = 8 });
  check_bool "gate in the key" true (key spec <> key { spec with P.gate = true });
  check_bool "samples in the key" true (key spec <> key { spec with P.samples = 99 });
  check_bool "engine in the key" true (key spec <> key { spec with P.engine = P.Iss });
  check_bool "program hash in the key" true
    (Serve.Cache.key ~prog_hash:42 spec <> Serve.Cache.key ~prog_hash:43 spec)

let test_cache_lru () =
  let spec seed =
    { (P.default_spec ~engine:P.Iss ~workload:"intbench") with
      P.iterations = Some 1;
      samples = 3;
      seed }
  in
  let prog = build_prog (spec 1) in
  let prog_hash = Journal.hash_program prog in
  let obs = Obs.create () in
  let cache = Serve.Cache.create ~obs ~capacity:2 () in
  let builds = ref 0 in
  let get seed =
    let s = spec seed in
    let _, hit =
      Serve.Cache.find_or_build cache ~key:(Serve.Cache.key ~prog_hash s)
        ~build:(fun () ->
          incr builds;
          Serve.Scheduler.build_engine s prog)
    in
    hit
  in
  check_bool "cold miss" false (get 1);
  check_bool "warm hit" true (get 1);
  check_bool "second entry misses" false (get 2);
  check_bool "third entry misses (evicts 1)" false (get 3);
  check_bool "2 still cached" true (get 2);
  check_bool "1 was evicted" false (get 1);
  check_int "builds" 4 !builds;
  check_int "hits counted" 2 (Serve.Cache.hits cache);
  check_int "misses counted" 4 (Serve.Cache.misses cache);
  check_int "hits on obs" 2 (Obs.counter obs "serve.cache.hits");
  check_int "misses on obs" 4 (Obs.counter obs "serve.cache.misses")

(* ---- job queue ---- *)

let test_jobqueue_persistence () =
  with_dir @@ fun dir ->
  let spec = P.default_spec ~engine:P.Rtl ~workload:"rspeed" in
  (match Serve.Jobqueue.open_ dir with
  | Error e -> Alcotest.fail e
  | Ok (q, records) ->
      check_int "fresh queue is empty" 0 (List.length records);
      let id = Serve.Jobqueue.next_id q in
      check_int "ids start at 1" 1 id;
      Serve.Jobqueue.append_job q id { spec with P.shards = 2 };
      check_bool "job dir created" true (Sys.is_directory (Serve.Jobqueue.job_dir q id));
      Serve.Jobqueue.mark_shard_done q ~job:id ~shard:2;
      let id2 = Serve.Jobqueue.next_id q in
      Serve.Jobqueue.append_job q id2 spec;
      Serve.Jobqueue.mark_job_failed q id2 ~reason:"boom";
      Serve.Jobqueue.close q);
  (* plant rewrite debris and a torn tail, the two crash artefacts the
     open must absorb *)
  let qfile = Filename.concat dir "queue.jsonl" in
  Out_channel.with_open_text (qfile ^ ".tmp") (fun oc -> output_string oc "{\"torn");
  let oc = open_out_gen [ Open_append ] 0o644 qfile in
  output_string oc {|{"type":"shard-done","job":1,"sh|};
  close_out oc;
  (match Serve.Jobqueue.open_ dir with
  | Error e -> Alcotest.fail e
  | Ok (q, records) ->
      check_bool "tmp debris removed" false (Sys.file_exists (qfile ^ ".tmp"));
      (match records with
      | [ a; b ] ->
          check_int "job 1 id" 1 a.Serve.Jobqueue.id;
          check_bool "job 1 open" true (a.Serve.Jobqueue.finished = `Open);
          check_bool "job 1 shard 2 done" true (a.Serve.Jobqueue.done_shards = [ 2 ]);
          check_bool "job 1 spec survives" true (a.Serve.Jobqueue.spec.P.shards = 2);
          check_bool "job 2 failed" true (b.Serve.Jobqueue.finished = `Failed "boom")
      | rs -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length rs)));
      check_int "ids monotonic across restarts" 3 (Serve.Jobqueue.next_id q);
      Serve.Jobqueue.close q);
  (* mid-file corruption is corruption, not a crash *)
  let lines = In_channel.with_open_text qfile In_channel.input_lines in
  Out_channel.with_open_text qfile (fun oc ->
      List.iteri
        (fun i l ->
          output_string oc l;
          output_char oc '\n';
          if i = 0 then output_string oc "{\"type\":\"job\"}\n")
        lines);
  check_bool "garbage mid-file rejected" true
    (match Serve.Jobqueue.open_ dir with Ok _ -> false | Error _ -> true)

(* ---- scheduler ---- *)

let run_to_completion t id =
  let deadline = Unix.gettimeofday () +. 300. in
  let events = ref [] in
  let rec go () =
    match Serve.Scheduler.job_result t id with
    | `Done (table, requeues) -> (table, requeues, List.rev !events)
    | `Failed reason -> Alcotest.fail (Printf.sprintf "job %d failed: %s" id reason)
    | `Unknown -> Alcotest.fail (Printf.sprintf "job %d unknown" id)
    | `Running ->
        if Unix.gettimeofday () > deadline then Alcotest.fail "scheduler timed out";
        events := List.rev_append (Serve.Scheduler.pump t ~timeout:0.05) !events;
        go ()
  in
  go ()

let running_pids t =
  match Json.member "jobs" (Serve.Scheduler.status_json t) with
  | Some (Json.List jobs) ->
      List.concat_map
        (fun job ->
          match Json.member "progress" job with
          | Some (Json.List shards) ->
              List.filter_map
                (fun s -> Option.bind (Json.member "pid" s) Json.to_int)
                shards
          | _ -> [])
        jobs
  | _ -> []

let test_scheduler_end_to_end () =
  with_dir @@ fun dir ->
  let spec = rtl_spec in
  let expected = direct_rtl_table spec in
  let t = ok_or_fail (Serve.Scheduler.create ~workers:2 ~dir ()) in
  Fun.protect ~finally:(fun () -> Serve.Scheduler.shutdown t) @@ fun () ->
  check_bool "invalid spec rejected" true
    (Result.is_error (Serve.Scheduler.submit t { spec with P.workload = "nope" }));
  let id, hit = ok_or_fail (Serve.Scheduler.submit t spec) in
  check_bool "first submission misses the cache" false hit;
  let table, requeues, events = run_to_completion t id in
  check_lines "served table equals direct run" expected table;
  check_int "no requeues" 0 requeues;
  check_bool "progress was streamed" true
    (List.exists
       (function Serve.Scheduler.Progress _ -> true | _ -> false)
       events);
  let summary = Filename.concat dir (Printf.sprintf "job-%d/summary.txt" id) in
  check_bool "summary persisted" true (Sys.file_exists summary);
  check_lines "summary file is the table" expected
    (List.filter (fun l -> l <> "")
       (In_channel.with_open_text summary In_channel.input_lines));
  (* repeat submission: cache hit, zero further golden simulations *)
  let g1 = Serve.Scheduler.golden_runs t in
  check_bool "the miss ran a golden simulation" true (g1 >= 1);
  let id2, hit2 = ok_or_fail (Serve.Scheduler.submit t spec) in
  check_bool "repeat submission hits" true hit2;
  let table2, _, _ = run_to_completion t id2 in
  check_lines "cached preparation gives the same table" expected table2;
  check_int "cache hit runs no golden cycles" g1 (Serve.Scheduler.golden_runs t);
  let hits, misses = Serve.Scheduler.cache_stats t in
  check_int "one hit" 1 hits;
  check_int "one miss" 1 misses;
  check_bool "scheduler drained" true (Serve.Scheduler.idle t)

let test_scheduler_requeue_on_crash () =
  with_dir @@ fun dir ->
  let spec = { rtl_spec with P.samples = 30 } in
  let expected = direct_rtl_table spec in
  let t = ok_or_fail (Serve.Scheduler.create ~workers:2 ~max_retries:3 ~dir ()) in
  Fun.protect ~finally:(fun () -> Serve.Scheduler.shutdown t) @@ fun () ->
  let id, _ = ok_or_fail (Serve.Scheduler.submit t spec) in
  (* let the workers fork, then kill one mid-shard *)
  ignore (Serve.Scheduler.pump t ~timeout:0.);
  (match running_pids t with
  | pid :: _ -> Unix.kill pid Sys.sigkill
  | [] -> Alcotest.fail "no running worker to kill");
  let table, requeues, events = run_to_completion t id in
  check_bool "the killed shard was requeued" true (requeues >= 1);
  check_bool "a requeue event was emitted" true
    (List.exists
       (function Serve.Scheduler.Requeued _ -> true | _ -> false)
       events);
  check_int "requeues counted on obs" requeues
    (Obs.counter (Serve.Scheduler.obs t) "serve.requeues");
  check_lines "table byte-identical after a worker crash" expected table

let test_scheduler_restart_recovery () =
  with_dir @@ fun dir ->
  let spec = rtl_spec in
  let expected = direct_rtl_table spec in
  (* first service life: finish one job, strand another mid-flight *)
  let t = ok_or_fail (Serve.Scheduler.create ~workers:2 ~dir ()) in
  let id1, _ = ok_or_fail (Serve.Scheduler.submit t spec) in
  let table1, _, _ = run_to_completion t id1 in
  check_lines "first life table" expected table1;
  let id2, _ = ok_or_fail (Serve.Scheduler.submit t spec) in
  ignore (Serve.Scheduler.pump t ~timeout:0.);
  Serve.Scheduler.shutdown t;
  (* second life on the same dir *)
  let t = ok_or_fail (Serve.Scheduler.create ~workers:2 ~dir ()) in
  Fun.protect ~finally:(fun () -> Serve.Scheduler.shutdown t) @@ fun () ->
  (match Serve.Scheduler.job_result t id1 with
  | `Done (table, _) -> check_lines "finished job recovered from summary" expected table
  | _ -> Alcotest.fail "finished job not recovered");
  (match Serve.Scheduler.job_result t id2 with
  | `Running -> ()
  | _ -> Alcotest.fail "stranded job not re-enqueued");
  let table2, _, _ = run_to_completion t id2 in
  check_lines "resumed job equals direct run" expected table2

let test_scheduler_iss () =
  with_dir @@ fun dir ->
  let spec =
    { (P.default_spec ~engine:P.Iss ~workload:"intbench") with
      P.iterations = Some 1;
      samples = 4;
      shards = 2 }
  in
  let expected = direct_iss_table spec in
  let t = ok_or_fail (Serve.Scheduler.create ~workers:2 ~dir ()) in
  Fun.protect ~finally:(fun () -> Serve.Scheduler.shutdown t) @@ fun () ->
  let id, hit = ok_or_fail (Serve.Scheduler.submit t spec) in
  check_bool "iss miss" false hit;
  let table, _, _ = run_to_completion t id in
  check_lines "served iss table equals direct run" expected table;
  let _, hit2 = ok_or_fail (Serve.Scheduler.submit t spec) in
  check_bool "iss repeat hits" true hit2

(* ---- daemon over a real socket ---- *)

let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

let raw_recv_line fd =
  let buf = Buffer.create 256 in
  let byte = Bytes.create 1 in
  let rec go () =
    match Unix.read fd byte 0 1 with
    | 0 -> if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
    | _ ->
        if Bytes.get byte 0 = '\n' then Some (Buffer.contents buf)
        else begin
          Buffer.add_char buf (Bytes.get byte 0);
          go ()
        end
  in
  go ()

let status_golden_runs j =
  match Option.bind (Json.member "golden_runs" j) Json.to_int with
  | Some n -> n
  | None -> Alcotest.fail "status without golden_runs"

let test_daemon_socket () =
  with_dir @@ fun dir ->
  let sock = Filename.concat dir "ricv.sock" in
  let addr = Serve.Daemon.Unix_sock sock in
  match Unix.fork () with
  | 0 -> (
      match Serve.Daemon.serve ~workers:2 ~log:(fun _ -> ()) ~dir addr with
      | Ok () -> Unix._exit 0
      | Error _ -> Unix._exit 1)
  | daemon_pid ->
      let daemon_status = ref None in
      Fun.protect
        ~finally:(fun () ->
          (match !daemon_status with
          | Some _ -> ()
          | None -> (
              try Unix.kill daemon_pid Sys.sigkill with Unix.Unix_error _ -> ()));
          try ignore (Unix.waitpid [] daemon_pid) with Unix.Unix_error _ -> ())
      @@ fun () ->
      (* wait for the daemon to bind and listen *)
      let rec connect_retry n =
        match Serve.Client.connect addr with
        | Ok c -> c
        | Error e ->
            if n = 0 then Alcotest.fail ("daemon never came up: " ^ e)
            else begin
              Unix.sleepf 0.05;
              connect_retry (n - 1)
            end
      in
      let c = connect_retry 200 in
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let spec = { rtl_spec with P.samples = 8 } in
      let expected = direct_rtl_table spec in
      let id, hit = ok_or_fail (Serve.Client.submit c spec) in
      check_int "first job id" 1 id;
      check_bool "first submit misses" false hit;
      let table, requeues = ok_or_fail (Serve.Client.wait_done c) in
      check_lines "served table over the wire" expected table;
      check_int "no requeues" 0 requeues;
      let g1 = status_golden_runs (ok_or_fail (Serve.Client.status c)) in
      check_bool "golden ran" true (g1 >= 1);
      (* a malformed line gets an error reply but keeps the connection *)
      let raw = raw_connect sock in
      raw_send raw "this is not json\n";
      (match raw_recv_line raw with
      | Some line -> (
          match Json.of_string line with
          | Ok j -> check_bool "error reply" true (Json.member "ok" j = Some (Json.Bool false))
          | Error e -> Alcotest.fail e)
      | None -> Alcotest.fail "no reply to malformed request");
      raw_send raw (P.request_to_string (P.Status None) ^ "\n");
      (match raw_recv_line raw with
      | Some line ->
          check_bool "connection survived the bad request" true
            (match Json.of_string line with
            | Ok j -> Json.member "ok" j = Some (Json.Bool true)
            | Error _ -> false)
      | None -> Alcotest.fail "connection dropped after malformed request");
      (* an oversized request drops the client *)
      raw_send raw (String.make (P.max_request_bytes + 16) 'x');
      (match raw_recv_line raw with
      | Some line ->
          check_bool "oversized rejected" true
            (match Json.of_string line with
            | Ok j -> Json.member "ok" j = Some (Json.Bool false)
            | Error _ -> false)
      | None -> ());
      check_bool "oversized client disconnected" true (raw_recv_line raw = None);
      (try Unix.close raw with Unix.Unix_error _ -> ());
      (* watching an already-finished job replays its terminal event *)
      ok_or_fail (Serve.Client.watch c id);
      let table', _ = ok_or_fail (Serve.Client.wait_done c) in
      check_lines "watch replays the finished table" expected table';
      (* repeat submission: cache hit, no further golden simulation *)
      let _, hit2 = ok_or_fail (Serve.Client.submit c spec) in
      check_bool "repeat hits the golden cache" true hit2;
      let table2, _ = ok_or_fail (Serve.Client.wait_done c) in
      check_lines "cached table over the wire" expected table2;
      let g2 = status_golden_runs (ok_or_fail (Serve.Client.status c)) in
      check_int "cache hit ran no golden cycles" g1 g2;
      (* unknown job *)
      check_bool "unknown job errors" true
        (Result.is_error
           (Result.bind (Serve.Client.watch c 99) (fun () -> Serve.Client.wait_done c)));
      (* shutdown: daemon exits cleanly and removes its socket *)
      ok_or_fail (Serve.Client.shutdown c);
      let _, st = Unix.waitpid [] daemon_pid in
      daemon_status := Some st;
      check_bool "daemon exited cleanly" true (st = Unix.WEXITED 0);
      check_bool "socket removed" false (Sys.file_exists sock)

let test_addr_parsing () =
  let module D = Serve.Daemon in
  check_bool "unix prefix" true (D.addr_of_string "unix:/tmp/x.sock" = Ok (D.Unix_sock "/tmp/x.sock"));
  check_bool "bare path" true (D.addr_of_string "/tmp/x.sock" = Ok (D.Unix_sock "/tmp/x.sock"));
  check_bool "tcp" true (D.addr_of_string "tcp:127.0.0.1:7341" = Ok (D.Tcp ("127.0.0.1", 7341)));
  check_bool "tcp bad port" true (Result.is_error (D.addr_of_string "tcp:host:notaport"));
  check_bool "tcp no port" true (Result.is_error (D.addr_of_string "tcp:hostonly"));
  List.iter
    (fun a ->
      match D.addr_of_string (D.addr_to_string a) with
      | Ok a' -> check_bool "addr round-trips" true (a = a')
      | Error e -> Alcotest.fail e)
    [ D.Unix_sock "/run/ricv.sock"; D.Tcp ("localhost", 7341) ]

let suite =
  ( "serve",
    [ Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
      Alcotest.test_case "protocol rejects" `Quick test_protocol_rejects;
      Alcotest.test_case "address parsing" `Quick test_addr_parsing;
      Alcotest.test_case "cache key" `Quick test_cache_key;
      Alcotest.test_case "cache lru" `Quick test_cache_lru;
      Alcotest.test_case "jobqueue persistence" `Quick test_jobqueue_persistence;
      Alcotest.test_case "scheduler end to end + cache" `Slow test_scheduler_end_to_end;
      Alcotest.test_case "requeue on crash" `Slow test_scheduler_requeue_on_crash;
      Alcotest.test_case "restart recovery" `Slow test_scheduler_restart_recovery;
      Alcotest.test_case "iss engine" `Slow test_scheduler_iss;
      Alcotest.test_case "daemon over socket" `Slow test_daemon_socket ] )
