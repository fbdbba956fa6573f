(* Change-driven settle = full sweep.  Two identical circuits run in
   lockstep: one settles change-driven, the other is invalidated before
   every settle so it sweeps every node.  Their states must be equal
   after every settle, and so must what they record (trace deltas per
   cycle, value coverage). *)

module C = Rtl.Circuit
module Injection = Fault_injection.Injection

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let models = [| C.Stuck_at_0; C.Stuck_at_1; C.Open_line; C.Bit_flip |]

(* ---- recording equality ---- *)

let same_trace ta tb =
  C.trace_cycles ta = C.trace_cycles tb
  && C.trace_evals ta = C.trace_evals tb
  &&
  let rec go c =
    c >= C.trace_cycles ta
    || List.sort compare (C.trace_delta ta c) = List.sort compare (C.trace_delta tb c)
       && go (c + 1)
  in
  go 0

(* coverage is abstract: compare what it decides for every bit *)
let same_coverage circuit ca cb =
  let same site =
    Array.for_all
      (fun m -> C.never_activates ca site m = C.never_activates cb site m)
      models
  in
  List.for_all
    (fun (_, s, w) ->
      let rec bits b = b >= w || (same (C.Node (s, b)) && bits (b + 1)) in
      bits 0)
    (C.signals circuit)
  && List.for_all
       (fun (_, m, words, w) ->
         let rec cells i b =
           i >= words
           || (b >= w && cells (i + 1) 0)
           || (b < w && same (C.Cell (m, i, b)) && cells i (b + 1))
         in
         cells 0 0)
       (C.memories circuit)

(* ---- random netlists ---- *)

type net = {
  c : C.t;
  inputs : C.signal array;
  nodes : (C.signal * int) array;  (* every node with its width *)
  mems : (C.memory * int * int) array;  (* memory, words, width *)
}

(* A random netlist, fully determined by [seed]: inputs, constants,
   registers (some with enables, some on feedback paths), memories with
   read and write ports, and 10-40 comb nodes of assorted functions
   over earlier nodes. *)
let build_random seed =
  let rs = Random.State.make [| seed |] in
  let int n = Random.State.int rs n in
  let c = C.create "random" in
  let acc = ref [] in
  let add s w =
    acc := (s, w) :: !acc;
    s
  in
  let pick () =
    let a = Array.of_list !acc in
    fst a.(int (Array.length a))
  in
  let width () = 1 + int 8 in
  let inputs =
    Array.init (1 + int 3) (fun i ->
        let w = width () in
        add (C.input c (Printf.sprintf "in%d" i) w) w)
  in
  for i = 0 to int 2 do
    let w = width () in
    ignore (add (C.const c (Printf.sprintf "k%d" i) w (int 256)) w)
  done;
  let regs =
    Array.init (2 + int 6) (fun i ->
        let w = width () in
        add (C.reg c (Printf.sprintf "r%d" i) ~width:w ~init:(int 256) ()) w)
  in
  let mems =
    Array.init (1 + int 2) (fun i ->
        let words = 2 + int 7 and w = width () in
        (C.memory c (Printf.sprintf "m%d" i) ~words ~width:w, words, w))
  in
  for i = 0 to 10 + int 30 do
    let nm = Printf.sprintf "n%d" i in
    if int 6 = 0 then begin
      let m, _, w = mems.(int (Array.length mems)) in
      ignore (add (C.read_port c nm m (pick ())) w)
    end
    else begin
      let deps = Array.init (1 + int 3) (fun _ -> pick ()) in
      let salt = int 256 and op = int 5 in
      let last = Array.length deps - 1 in
      let f vs =
        match op with
        | 0 -> vs.(0) + salt
        | 1 -> Array.fold_left ( lxor ) salt vs
        | 2 -> Array.fold_left ( land ) (-1) vs
        | 3 -> if vs.(0) land 1 = 0 then vs.(last) else salt
        | _ -> (vs.(0) * 3) lsr 1
      in
      let w = width () in
      ignore (add (C.combn c nm w deps f) w)
    end
  done;
  Array.iter
    (fun r ->
      if int 3 = 0 then C.connect c r ~en:(pick ()) ~d:(pick ()) ()
      else C.connect c r ~d:(pick ()) ())
    regs;
  Array.iter
    (fun (m, _, _) ->
      for _ = 0 to int 2 do
        C.write_port c m ~we:(pick ()) ~addr:(pick ()) ~data:(pick ())
      done)
    mems;
  C.elaborate c;
  { c; inputs; nodes = Array.of_list (List.rev !acc); mems }

let random_site rs net =
  let int n = Random.State.int rs n in
  if int 3 = 0 then
    let m, words, w = net.mems.(int (Array.length net.mems)) in
    C.Cell (m, int words, int w)
  else
    let s, w = net.nodes.(int (Array.length net.nodes)) in
    C.Node (s, int w)

let random_duration rs =
  match Random.State.int rs 3 with 0 -> None | 1 -> Some 1 | _ -> Some 3

(* A lane of a batch over a golden trace of [net]'s netlist, ejected
   mid-trace: the state a watchdog continuation starts from. *)
let random_transplant seed rs =
  let g = build_random seed in
  let int n = Random.State.int rs n in
  let drive () =
    Array.iter (fun i -> if int 2 = 0 then C.set_input g.c i (int 512)) g.inputs
  in
  C.trace_start g.c;
  C.reset g.c;
  drive ();
  C.settle g.c;
  let init = C.snapshot g.c in
  for _ = 1 to 20 do
    C.clock g.c;
    drive ();
    C.settle g.c
  done;
  let tr = C.trace_stop g.c in
  C.restore g.c init;
  C.settle g.c;
  C.batch_start g.c tr;
  C.batch_arm g.c 0 ~from_cycle:(int 4) ?duration:(random_duration rs)
    (random_site rs g) models.(int 4);
  for _ = 1 to 1 + int 10 do
    C.batch_settle g.c;
    C.batch_clock g.c
  done;
  C.batch_settle g.c;
  let tp = C.batch_eject g.c 0 in
  ignore (C.batch_stop g.c);
  tp

let lockstep_random seed =
  let a = build_random seed and b = build_random seed in
  let rs = Random.State.make [| seed; 1 |] in
  let int n = Random.State.int rs n in
  (* recording runs start coverage and trace at independent points,
     mid-run, and never restore or transplant (a trace cannot go back);
     coverage runs for a few settles only, before random inputs have
     shown every bit both ways *)
  let record = int 2 = 0 in
  let cov_at = if record then int 20 else -1 and trace_at = if record then int 20 else -1 in
  let cov_stop = cov_at + 1 + int 4 in
  let tp = random_transplant seed rs in
  let both f =
    f a;
    f b
  in
  both (fun n -> C.reset n.c);
  let snaps = ref [] in
  for step = 0 to 60 do
    if step = cov_at then both (fun n -> C.coverage_start n.c);
    if step = trace_at then both (fun n -> C.trace_start n.c);
    if record && step = cov_stop then begin
      let ca = C.coverage_stop a.c and cb = C.coverage_stop b.c in
      check_bool "coverage equal" true (same_coverage a.c ca cb)
    end;
    (* repeated inputs, some to the value they already hold *)
    for _ = 1 to int 5 do
      let i = int (Array.length a.inputs) and v = int 512 in
      both (fun n -> C.set_input n.c n.inputs.(i) v)
    done;
    if int 8 = 0 then begin
      let k = int (Array.length a.mems) in
      let _, words, _ = a.mems.(k) in
      let idx = int words and v = int 512 in
      both (fun n ->
          let m, _, _ = n.mems.(k) in
          C.mem_write n.c m idx v)
    end;
    if int 6 = 0 then begin
      (* same site on both netlists: node and memory handles are
         creation-order indexes *)
      let site = random_site rs a in
      let from_cycle = C.cycle a.c + int 4 and duration = random_duration rs in
      let model = models.(int 4) in
      both (fun n -> C.inject n.c ~from_cycle ?duration site model)
    end;
    if int 20 = 0 then both (fun n -> C.clear_fault n.c);
    if (not record) && !snaps <> [] && int 12 = 0 then begin
      let s = List.nth !snaps (int (List.length !snaps)) in
      both (fun n -> C.restore n.c s)
    end;
    if (not record) && int 15 = 0 then both (fun n -> C.transplant n.c tp);
    C.settle a.c;
    C.invalidate b.c;
    C.settle b.c;
    if not (C.state_equal a.c (C.snapshot b.c)) then
      Alcotest.failf "seed %d: states differ after settle %d (cycle %d)" seed step
        (C.cycle a.c);
    if int 6 = 0 then snaps := C.snapshot a.c :: !snaps;
    both (fun n -> C.clock n.c)
  done;
  if record then begin
    let ta = C.trace_stop a.c and tb = C.trace_stop b.c in
    check_bool "trace deltas per cycle equal" true (same_trace ta tb)
  end;
  check_int "reference swept every settle" 61 (C.full_settles b.c);
  check_bool "change-driven settles ran" true (C.full_settles a.c < 61);
  true

let prop_random_lockstep =
  QCheck2.Test.make ~name:"random netlists: change-driven settle = full sweep" ~count:300
    ~print:string_of_int QCheck2.Gen.nat lockstep_random

(* ---- targeted: a comb fault window opens and closes ---- *)

let test_comb_window_heals () =
  (* in -> r -> mid (comb, faulted) -> out (comb): with the input held,
     nothing but the fault window moves, so only the armed-site push
     can apply and then heal the fault *)
  let c = C.create "window" in
  let inp = C.input c "in" 8 in
  let r = C.reg c "r" ~width:8 () in
  C.connect c r ~d:inp ();
  let mid = C.comb1 c "mid" 8 r (fun v -> v) in
  let out = C.comb1 c "out" 8 mid (fun v -> v + 1) in
  C.elaborate c;
  C.reset c;
  C.set_input c inp 0x10;
  C.settle c;
  C.inject c ~from_cycle:3 ~duration:2 (C.Node (mid, 0)) C.Stuck_at_1;
  let full0 = C.full_settles c in
  let seen = ref [] in
  for _ = 0 to 6 do
    C.settle c;
    seen := (C.cycle c, C.value c mid, C.value c out) :: !seen;
    C.clock c
  done;
  let expect =
    [ (0, 0x00, 0x01); (1, 0x10, 0x11); (2, 0x10, 0x11); (3, 0x11, 0x12);
      (4, 0x11, 0x12); (5, 0x10, 0x11); (6, 0x10, 0x11) ]
  in
  Alcotest.(check (list (triple int int int))) "window applies, then heals" expect
    (List.rev !seen);
  check_int "only the settle after inject swept" 1 (C.full_settles c - full0);
  (* open-line: frozen at activation, while its input keeps moving *)
  C.inject c ~from_cycle:9 ~duration:3 (C.Node (mid, 0)) C.Open_line;
  let seen = ref [] in
  for v = 0 to 5 do
    C.set_input c inp v;
    C.settle c;
    seen := (C.cycle c, C.value c mid) :: !seen;
    C.clock c
  done;
  (* r lags in by one clock; the window covers cycles 9-11 and the bit
     captured at cycle 9 is r's bit 0 then (v = 1 -> 1) *)
  Alcotest.(check (list (pair int int))) "open-line holds its captured bit"
    [ (7, 0x10); (8, 0); (9, 1); (10, 3); (11, 3); (12, 4) ] (List.rev !seen)

(* ---- the Leon3 system on both elaborations ---- *)

let params ~gate = { Leon3.Core.default_params with Leon3.Core.gate_level = gate }

let systems =
  let mk gate =
    lazy
      (Leon3.System.create ~params:(params ~gate) (),
       Leon3.System.create ~params:(params ~gate) ())
  in
  let beh = mk false and gl = mk true in
  fun ~gate -> Lazy.force (if gate then gl else beh)

let circuit sys = (Leon3.System.core sys).Leon3.Core.circuit

let program name =
  (Workloads.Suite.find name).Workloads.Suite.build ~iterations:1 ~dataset:0

(* Step both systems one cycle at a time (the reference invalidated
   before every step, so the step's settle sweeps everything) and
   compare their states after every settle.  [restore_at]: at that
   cycle, both go back to a checkpoint taken at half of it. *)
let system_lockstep ~gate ?fault ?restore_at prog ~bound =
  let sa, sb = systems ~gate in
  let ca = circuit sa and cb = circuit sb in
  List.iter (fun s -> Leon3.System.load s prog) [ sa; sb ];
  (match fault with
  | Some (site, model, from_cycle, duration) ->
      List.iter (fun c -> C.inject c ~from_cycle ?duration site model) [ ca; cb ]
  | None -> ());
  let ck = ref None in
  let restored = ref false in
  let stop = ref None in
  while !stop = None && Leon3.System.cycles sa < bound do
    let cyc = Leon3.System.cycles sa in
    (match restore_at with
    | Some r when cyc = r / 2 -> ck := Some (Leon3.System.checkpoint sa)
    | Some r when cyc = r && not !restored ->
        restored := true;
        let k = Option.get !ck in
        List.iter (fun s -> Leon3.System.restore_checkpoint s k) [ sa; sb ]
    | Some _ | None -> ());
    C.invalidate cb;
    let step s =
      Leon3.System.run_segment s
        ~until_cycle:(Leon3.System.cycles s + 1)
        ~max_cycles:(bound + 1)
    in
    let ra = step sa and rb = step sb in
    if ra <> rb then Alcotest.fail "stop reasons differ";
    stop := ra;
    if not (C.state_equal ca (C.snapshot cb)) then
      Alcotest.failf "%s: states differ at cycle %d"
        (if gate then "gate-level" else "behavioural")
        (C.cycle ca)
  done;
  List.iter C.clear_fault [ ca; cb ];
  check_bool "same writes" true (Leon3.System.writes sa = Leon3.System.writes sb)

let test_golden_lockstep ~gate () =
  (* the golden run with coverage and trace: states and recordings *)
  let sa, sb = systems ~gate in
  let ca = circuit sa and cb = circuit sb in
  let prog = program "rspeed" in
  List.iter
    (fun c ->
      C.clear_fault c;
      C.coverage_start c;
      C.trace_start c)
    [ ca; cb ];
  let evals0 = C.scalar_evals ca in
  system_lockstep ~gate prog ~bound:10_000_000;
  let ta = C.trace_stop ca and tb = C.trace_stop cb in
  check_bool "trace deltas per cycle equal" true (same_trace ta tb);
  let cova = C.coverage_stop ca and covb = C.coverage_stop cb in
  check_bool "coverage equal" true (same_coverage ca cova covb);
  (* and the change-driven side evaluated a fraction of the sweeps *)
  check_bool "change-driven evaluations under a quarter of dense" true
    ((C.scalar_evals ca - evals0) * 4 < C.trace_evals ta);
  (* mid-run restore *)
  system_lockstep ~gate prog ~restore_at:3000 ~bound:6000

let sites =
  let mk gate =
    lazy
      (let sa, _ = systems ~gate in
       let core = Leon3.System.core sa in
       Array.of_list
         (Injection.sites core Injection.Iu @ Injection.sites core Injection.Cmem))
  in
  let beh = mk false and gl = mk true in
  fun ~gate -> Lazy.force (if gate then gl else beh)

let gen_fault =
  let open QCheck2.Gen in
  quad bool (int_bound 1_000_000) (int_bound 3) (pair (int_bound 2000) (int_bound 2))

let print_fault (gate, si, mi, (from_cycle, di)) =
  let s = sites ~gate in
  Printf.sprintf "%s %s %s from %d %s"
    (if gate then "gate-level" else "behavioural")
    s.(si mod Array.length s).Injection.site_name
    (C.fault_model_name models.(mi))
    from_cycle
    (match di with 0 -> "permanent" | 1 -> "for 1" | _ -> "for 5")

let prop_system_lockstep =
  QCheck2.Test.make ~name:"Leon3 faulty runs: change-driven settle = full sweep" ~count:24
    ~print:print_fault gen_fault (fun (gate, si, mi, (from_cycle, di)) ->
      let s = sites ~gate in
      let site = s.(si mod Array.length s).Injection.fault_site in
      let duration = match di with 0 -> None | 1 -> Some 1 | _ -> Some 5 in
      system_lockstep ~gate
        ~fault:(site, models.(mi), from_cycle, duration)
        ~restore_at:2400 (program "ttsprk") ~bound:4000;
      true)

let suite =
  ( "settle",
    [ Alcotest.test_case "comb fault window heals on the next settle" `Quick
        test_comb_window_heals;
      Alcotest.test_case "golden lockstep, behavioural" `Slow
        (test_golden_lockstep ~gate:false);
      Alcotest.test_case "golden lockstep, gate-level" `Slow
        (test_golden_lockstep ~gate:true) ]
    @ List.map QCheck_alcotest.to_alcotest [ prop_random_lockstep; prop_system_lockstep ] )
