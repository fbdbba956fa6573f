(* Host-speed probe: see probe.mli. *)

(* a fixed random netlist of NAND/NOR/XOR/MUX gates in topological
   order over 64 changing inputs, 100 KiB of state: it stresses the
   core's issue ports and branch prediction, as the simulators do, but
   stays in the L2 cache *)
let inputs = 64

let gates = 4096

let rng = Random.State.make [| 11 |]

let kind = Array.init gates (fun _ -> Random.State.int rng 4)

let operand () = Array.init gates (fun g -> Random.State.int rng (inputs + g))

let src_a = operand ()

let src_b = operand ()

let src_c = operand ()

let value = Array.make (inputs + gates) 0

let kernel () =
  for cycle = 1 to 12 do
    for i = 0 to inputs - 1 do
      value.(i) <- (value.(i) * 25214903917) + cycle + i
    done;
    for g = 0 to gates - 1 do
      let a = value.(src_a.(g)) and b = value.(src_b.(g)) in
      value.(inputs + g) <-
        (match kind.(g) with
        | 0 -> lnot (a land b)
        | 1 -> lnot (a lor b)
        | 2 -> a lxor b
        | _ ->
            let c = value.(src_c.(g)) in
            a land c lor (b land lnot c))
    done
  done

(* the pass time that counts as speed 1 *)
let reference_s = 0.0005

(* samples in a fixed buffer: 2^16 of them outlast any run *)
let samples = Array.make (1 lsl 16) 0.

let count = ref 0

let total = ref 0.

let sample _ =
  if !count < Array.length samples then begin
    let t0 = Unix.gettimeofday () in
    kernel ();
    let dt = Unix.gettimeofday () -. t0 in
    samples.(!count) <- dt;
    total := !total +. dt;
    incr count
  end

let started = ref false

let start () =
  if not !started then begin
    started := true;
    Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle sample);
    ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = 0.05; it_value = 0.05 })
  end

let start_beside () =
  if not !started then begin
    started := true;
    ignore
      (Thread.create
         (fun () ->
           while true do
             Thread.delay 0.05;
             sample 0
           done)
         ())
  end

type mark = { at : int; spent : float }

let mark () = { at = !count; spent = !total }

let slowdown m =
  let n = !count - m.at in
  if n = 0 then 1.
  else Stats.Summary.percentile (Array.sub samples m.at n) 50. /. reference_s

let overhead m = !total -. m.spent
