(* In-memory trace of one traced job.  A live collector whose sink keeps
   every emitted event line: the benchmark's own spans (around the calls
   into each layer's public functions) and the library spans they
   enclose share one clock, so a span's self time is its duration minus
   the part its direct children cover. *)

type t = { obs : Obs.t; lines : string list ref }

let create () =
  let lines = ref [] in
  { obs = Obs.create ~sink:(fun l -> lines := l :: !lines) (); lines }

let obs t = t.obs

let obs_of = function Some t -> t.obs | None -> Obs.null

let within t name f = match t with Some t -> Obs.span t.obs name f | None -> f ()

let lines t = List.rev !(t.lines)

type span = { name : string; start : float; stop : float }

let parse line =
  let module J = Obs.Json in
  match J.of_string line with
  | Ok j when J.member "type" j = Some (J.Str "span") -> (
      let num k =
        match J.member k j with
        | Some (J.Float f) -> Some f
        | Some (J.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      match (Option.bind (J.member "name" j) J.to_str, num "start", num "dur") with
      | Some name, Some start, Some dur -> Some { name; start; stop = start +. dur }
      | _ -> None)
  | Ok _ | Error _ -> None

(* Nesting by interval containment: after sorting by start (longest
   first on ties) every span's parent is the innermost open span that
   contains it.  Clock reads are ordered, so a child never outlives its
   parent; the epsilon only absorbs float rounding. *)
let self_times t =
  let eps = 1e-7 in
  let spans = List.filter_map parse (lines t) in
  let spans =
    List.stable_sort
      (fun a b ->
        match compare a.start b.start with
        | 0 -> compare (b.stop -. b.start) (a.stop -. a.start)
        | c -> c)
      spans
  in
  let totals = Hashtbl.create 16 in
  let add name d =
    Hashtbl.replace totals name (d +. Option.value (Hashtbl.find_opt totals name) ~default:0.)
  in
  (* stack of (span, covered-by-children) *)
  let close (s, covered) = add s.name (s.stop -. s.start -. !covered) in
  let rec pop stack s =
    match stack with
    | ((p, _) as top) :: rest when not (s.start >= p.start -. eps && s.stop <= p.stop +. eps) ->
        close top;
        pop rest s
    | stack -> stack
  in
  let stack =
    List.fold_left
      (fun stack s ->
        let stack = pop stack s in
        (match stack with
        | (_, covered) :: _ -> covered := !covered +. (s.stop -. s.start)
        | [] -> ());
        (s, ref 0.) :: stack)
      [] spans
  in
  List.iter close stack;
  List.sort compare (Hashtbl.fold (fun name d acc -> (name, d) :: acc) totals [])
