module C = Rtl.Circuit

let validate_shard ~who (i, n) =
  if n < 1 || i < 1 || i > n then
    invalid_arg (Printf.sprintf "%s: shard index out of range: %d/%d" who i n);
  (i, n)

type 'ctx work = {
  units : int list -> ('ctx -> Obs.t -> (int * Journal.run_result) list) list;
  finish :
    'ctx ->
    Obs.t ->
    resolved:(int -> Journal.run_result option) ->
    int ->
    Journal.run_result option;
}

type 'ctx sampled = {
  fingerprint : Journal.fingerprint;
  site_names : string array;
  models : C.fault_model list;
  work : unit -> 'ctx work;
}

type 'ctx engine = {
  who : string;
  shard : int * int;
  context : unit -> 'ctx;
  attach : 'ctx -> Obs.t -> unit;
  release : 'ctx -> unit;
  sample : 'ctx -> Obs.t -> 'ctx sampled;
}

(* The (optional) writer and the verdicts already on disk. *)
let open_journal ~journal ~resume fp =
  match journal with
  | None -> (None, [])
  | Some path when resume -> (
      match Journal.open_resume path fp with
      | Ok (w, entries) -> (Some w, entries)
      | Error msg -> raise (Journal.Rejected msg))
  | Some path -> (Some (Journal.create path fp), [])

(* A journal whose header matches but whose record at a site names
   another site was written by a different sampling: never replay it. *)
let replay_check ~index ~expected (r : Journal.run_result) =
  if r.site_name <> expected then
    raise
      (Journal.Rejected
         (Printf.sprintf "journal verdict at site %d names %S, campaign expects %S" index
            r.site_name expected))

(* Units are claimed from one atomic queue.  Every worker (the caller
   included, as worker 0 on [scratch]) aggregates into a private fork,
   so the hot path never contends; the forks merge into [obs] in spawn
   order at join, which keeps totals deterministic for any domain
   count.  A worker that raises records the exception and flips
   [aborted] so its peers stop at the next unit boundary.  With one
   domain nothing is spawned: callers may fork the process afterwards,
   which OCaml 5 forbids once a domain has ever been spawned. *)
let fan_out ~obs ~domains e scratch units emit =
  let units = Array.of_list units in
  let next = Atomic.make 0 in
  let aborted = Atomic.make false in
  let errors = Array.make domains None in
  let worker wi ctx fork =
    e.attach ctx fork;
    let rec go () =
      if not (Atomic.get aborted) then begin
        let k = Atomic.fetch_and_add next 1 in
        if k < Array.length units then begin
          List.iter (fun (ti, r) -> emit ti r) (units.(k) ctx fork);
          go ()
        end
      end
    in
    try go ()
    with ex ->
      errors.(wi) <- Some (ex, Printexc.get_raw_backtrace ());
      Atomic.set aborted true
  in
  let forks = Array.init domains (fun _ -> Obs.fork obs) in
  let spawned =
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> worker (i + 1) (e.context ()) forks.(i + 1)))
  in
  worker 0 scratch forks.(0);
  List.iter Domain.join spawned;
  Array.iter (fun fork -> Obs.merge ~into:obs fork) forks;
  (* re-raised only after every domain has joined and its fork has
     been merged, so nothing hides behind a missing-result failure *)
  Array.iter
    (function Some (ex, bt) -> Printexc.raise_with_backtrace ex bt | None -> ())
    errors

let run ?(obs = Obs.null) ?(domains = 1) ?on_progress ?journal ?(resume = false) e =
  let shard_i, shard_n = validate_shard ~who:e.who e.shard in
  let domains = max 1 domains in
  let scratch = e.context () in
  Fun.protect ~finally:(fun () -> e.release scratch) @@ fun () ->
  e.attach scratch obs;
  let s = e.sample scratch obs in
  let writer, entries = open_journal ~journal ~resume s.fingerprint in
  Fun.protect ~finally:(fun () -> Option.iter Journal.close writer) @@ fun () ->
  let nsites = Array.length s.site_names in
  let models = Array.of_list s.models in
  (* Shard I/N owns the sites whose sample index is congruent to I-1
     mod N, under every model: same seed, disjoint covering shards. *)
  let exec_ids =
    Array.of_list
      (List.filter
         (fun ti -> ti mod nsites mod shard_n = shard_i - 1)
         (List.init (nsites * Array.length models) Fun.id))
  in
  let results = Array.make (nsites * Array.length models) None in
  let total = Array.length exec_ids in
  let completed = Atomic.make 0 in
  let settle ti r =
    results.(ti) <- Some r;
    match on_progress with
    | Some f -> f ~done_:(Atomic.fetch_and_add completed 1 + 1) ~total
    | None -> ()
  in
  let emit ti r =
    Option.iter (fun w -> Journal.append w ~index:(ti mod nsites) r) writer;
    settle ti r
  in
  (* Journaled verdicts replay before any unit runs, so their result
     slots are read-only by the time workers start. *)
  let journaled = Hashtbl.create ((2 * List.length entries) + 1) in
  List.iter
    (fun en -> Hashtbl.replace journaled (en.Journal.result.model, en.Journal.index) en.result)
    entries;
  Array.iter
    (fun ti ->
      let index = ti mod nsites in
      match Hashtbl.find_opt journaled (models.(ti / nsites), index) with
      | Some r ->
          replay_check ~index ~expected:s.site_names.(index) r;
          Obs.incr obs "journal.replayed";
          settle ti r
      | None -> ())
    exec_ids;
  let pending = List.filter (fun ti -> results.(ti) = None) (Array.to_list exec_ids) in
  if pending <> [] then begin
    let w = s.work () in
    fan_out ~obs ~domains e scratch (w.units pending) emit;
    e.attach scratch obs;
    Array.iter
      (fun ti ->
        if results.(ti) = None then
          Option.iter (emit ti) (w.finish scratch obs ~resolved:(fun j -> results.(j)) ti))
      exec_ids
  end;
  Array.to_list
    (Array.map
       (fun ti ->
         match results.(ti) with
         | Some r -> r
         | None ->
             failwith
               (Printf.sprintf "%s: missing result for task %d (site %s, model %s)" e.who
                  ti
                  s.site_names.(ti mod nsites)
                  (C.fault_model_name models.(ti / nsites))))
       exec_ids)
