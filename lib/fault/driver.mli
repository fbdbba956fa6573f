(** The campaign driver shared by every engine.

    A campaign, at any level of abstraction, is a fixed global task
    list — model-major over a sampled site array — executed shard by
    shard, journaled verdict by verdict, and fanned out over OCaml
    domains.  This module owns all of that exactly once: shard
    validation and the shard's task ids, opening and replaying the
    journal (with the site-name replay check), the rule that a journal
    already covering the shard skips the engine's expensive setup, the
    progress callback, the domain fan-out with per-domain telemetry
    forks, and the in-order assembly of the result list.

    An engine ({!Campaign} for RTL, {!Iss_campaign} for the ISS)
    supplies an {!engine} record: how to sample and fingerprint its
    sites, how to build its shard-independent machinery, how to group
    pending tasks into work units, how to execute one unit on a
    worker-private context, and an in-order finish pass for tasks no
    unit resolved. *)

val validate_shard : who:string -> int * int -> int * int
(** Returns a valid 1-based [(i, n)] shard spec unchanged; raises
    [Invalid_argument "WHO: shard index out of range: I/N"] otherwise. *)

type 'ctx work = {
  units : int list -> ('ctx -> Obs.t -> (int * Journal.run_result) list) list;
      (** Group the shard's unjournaled task ids (in task order) into
          work units.  A unit runs on one worker's context with that
          worker's telemetry fork and returns the verdicts it decided,
          by task id.  Tasks left out of every unit go to [finish]. *)
  finish :
    'ctx ->
    Obs.t ->
    resolved:(int -> Journal.run_result option) ->
    int ->
    Journal.run_result option;
      (** Called after every unit has run, on the caller's context and
          collector, once per still-unresolved task in task order;
          [resolved] reads any task's verdict so far. *)
}

type 'ctx sampled = {
  fingerprint : Journal.fingerprint;  (** the journal identity *)
  site_names : string array;
      (** the sampled sites; task [ti] is site [ti mod nsites] under
          model [ti / nsites], and its journal index is the site index *)
  models : Rtl.Circuit.fault_model list;  (** the journal model of each block *)
  work : unit -> 'ctx work;
      (** Build the shard-independent machinery.  Called at most once,
          and only when the shard has a task the journal does not
          already hold. *)
}

type 'ctx engine = {
  who : string;  (** prefix of error messages *)
  shard : int * int;
  context : unit -> 'ctx;
      (** A worker-private execution context: called once for the
          caller (before sampling) and once inside each spawned
          domain. *)
  attach : 'ctx -> Obs.t -> unit;  (** route a context's telemetry to a collector *)
  release : 'ctx -> unit;
      (** Restore the caller's context to its defaults; runs on every
          exit, exceptions included. *)
  sample : 'ctx -> Obs.t -> 'ctx sampled;
}

val run :
  ?obs:Obs.t ->
  ?domains:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  ?resume:bool ->
  'ctx engine ->
  Journal.run_result list
(** Execute the engine's shard and return its verdicts in task order.

    [journal] appends every new verdict to a crash-safe JSONL file
    headed by the fingerprint.  With [resume], an existing journal is
    validated against the fingerprint and its verdicts are replayed
    instead of re-executed (counted as [journal.replayed] on [obs]); a
    journal of another campaign, or one whose verdict at a site names
    a different site, raises {!Journal.Rejected}.  Line order in the
    journal follows completion, not task order: {!Journal.merge} and
    resume place records by index.

    Work units are claimed from one queue by [domains] workers
    (default 1).  [domains = 1] spawns no domain at all, so a process
    may still [fork] afterwards.  Every worker aggregates into a
    private {!Obs.fork}, merged into [obs] in spawn order at join, so
    telemetry totals do not depend on the domain count.  A worker that
    raises stops its peers at the next unit boundary; after every
    domain has joined, the lowest-numbered failed worker's exception
    is re-raised with its backtrace, and every verdict decided before
    the abort is already journaled.  [on_progress] is called once per
    verdict, replayed ones included, with an atomically increasing
    [done_] (possibly from several domains); the last call has
    [done_ = total]. *)
