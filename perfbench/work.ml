(* What every workload hands the runner. *)

type round = {
  wall : float;  (** seconds for the whole round *)
  slowdown : float;
      (** the host's slowdown over the round ({!Probe.slowdown}), by
          which its timings are divided *)
  job_walls : float array;  (** submit-to-verdict-table seconds, per job of the round *)
  setups : float list;  (** cold-preparation samples taken in the round, seconds *)
  injections : int;  (** injections classified, avoided ones included *)
  verdicts : string;  (** digest of every verdict; identical rounds must agree *)
  layers : (string * float) list;  (** per-layer values; traced rounds only *)
}

type t = {
  jobs_per_round : int;
  round : Spans.t option -> round;
  check : seed:int -> Spans.t option -> int * (string * float) list;
      (** re-derive a seeded sample of the first round's verdicts with
          the reference engine; returns the mismatch count and the
          layers the check measured *)
  finish : unit -> float;
      (** stop helper processes; the peak RSS in MiB *)
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let ratio a b = if b > 0. then a /. b else 0.

(* 0 for a layer the workload does not exercise *)
let median = function [] -> 0. | xs -> Stats.Summary.percentile (Array.of_list xs) 50.

let counter obs name = float_of_int (Obs.counter obs name)

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* [k] distinct elements of [xs], chosen by [seed], in list order *)
let pick ~seed k xs =
  let rng = Stats.Rng.create seed in
  let a = Array.of_list xs in
  let chosen = Stats.Rng.sample_without_replacement rng (min k (Array.length a)) a in
  List.filter (fun x -> Array.memq x chosen) xs

let gc_layers f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    [ ("gc.minor_mwords", (s1.Gc.minor_words -. s0.Gc.minor_words) /. 1e6);
      ("gc.major_collections", float_of_int (s1.Gc.major_collections - s0.Gc.major_collections)) ] )
