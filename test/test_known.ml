(* Known-answer gate: golden runs and campaign tables must match the
   outputs recorded in test/known/ (see its README).  Unlike the
   engine-vs-engine equivalence gates, this catches a drift shared by
   every engine. *)

(* [dune runtest] runs in the test directory, [dune exec] in the root *)
let read_lines file =
  let path = if Sys.file_exists "known" then "known/" ^ file else "test/known/" ^ file in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let params ~gate = { Leon3.Core.default_params with Leon3.Core.gate_level = gate }

let golden_line ~gate (e : Workloads.Suite.entry) =
  let prog =
    e.Workloads.Suite.build ~iterations:e.Workloads.Suite.default_iterations ~dataset:0
  in
  let sys = Leon3.System.create ~params:(params ~gate) () in
  Leon3.System.load sys prog;
  let stop = Leon3.System.run sys ~max_cycles:10_000_000 in
  let writes = Leon3.System.writes sys in
  let digest =
    Digest.to_hex
      (Digest.string (String.concat ";" (List.map Sparc.Bus_event.to_string writes)))
  in
  Format.asprintf "%s %s stop=%a cycles=%d instructions=%d writes=%d digest=%s state=%016x"
    (if gate then "gate-level" else "behavioural")
    e.Workloads.Suite.name Leon3.System.pp_stop stop (Leon3.System.cycles sys)
    (Leon3.System.instructions sys) (List.length writes) digest
    (Rtl.Circuit.state_hash (Leon3.System.core sys).Leon3.Core.circuit land max_int)

let test_golden () =
  let got =
    List.concat_map
      (fun gate -> List.map (golden_line ~gate) Workloads.Suite.table1_set)
      [ false; true ]
  in
  Alcotest.(check (list string)) "golden runs" (read_lines "golden.txt") got

(* the table `ricv campaign NAME -i 1 -s SAMPLES` prints (its default
   target, seed and engines) *)
let campaign_lines ~gate name samples =
  let prog = (Workloads.Suite.find name).Workloads.Suite.build ~iterations:1 ~dataset:0 in
  let config =
    { Fault_injection.Campaign.default_config with
      Fault_injection.Campaign.sample_size = Some samples }
  in
  let summaries, _ =
    Fault_injection.Campaign.run ~config
      (Leon3.System.create ~params:(params ~gate) ())
      prog Fault_injection.Injection.Iu
  in
  Serve.Render.rtl_summary_lines summaries

let test_campaign ~gate name samples file () =
  Alcotest.(check (list string))
    (Printf.sprintf "%s table" name)
    (read_lines file)
    (campaign_lines ~gate name samples)

let suite =
  ( "known-answers",
    [ Alcotest.test_case "golden runs, both elaborations" `Slow test_golden;
      Alcotest.test_case "gate-level rspeed campaign table" `Slow
        (test_campaign ~gate:true "rspeed" 12 "campaign_gate_rspeed_i1_s12.txt");
      Alcotest.test_case "behavioural ttsprk campaign table" `Slow
        (test_campaign ~gate:false "ttsprk" 40 "campaign_ttsprk_i1_s40.txt") ] )
