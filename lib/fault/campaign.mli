(** Fault-injection campaign engine.

    A campaign repeats, for every sampled injection site and every
    fault model: reset the RTL system, arm one permanent fault, run the
    workload, and classify the outcome against a fault-free golden run.
    As in the paper, a fault {e becomes a failure} when the off-core
    write stream diverges from the golden one (light-lockstep
    observation): a wrong/extra write, a missing write at program end,
    a trap, or a hang (watchdog).  Runs stop at the first divergent
    write, so failures are cheap and only silent runs pay full cost.

    {b Trimmed execution.}  Most injections are redundant work: a
    permanent fault whose forced value the golden run never
    contradicts can never activate, and a 1-cycle transient whose
    state re-converges with the golden state has a provably golden
    future.  With [config.trim] (on by default) the engine records
    value coverage and checkpoints during the golden run and uses them
    to (a) classify never-activating permanent faults silent without
    simulating, (b) start each bounded-fault run at the last
    checkpoint before its injection instant, and (c) stop a
    bounded-fault run at the first checkpoint where its state equals
    the golden state.  All three are exact — trimmed and untrimmed
    campaigns produce identical verdicts, failure breakdowns and
    latencies; {!summary} reports how much simulation was avoided.

    {b Telemetry.}  Every entry point accepts an [?obs] collector
    (default {!Obs.null}, no cost).  A live collector receives
    per-phase spans ([golden], [site_sampling], [prefilter],
    [simulate], [converge]), per-injection outcome counters
    ([injections], [outcome.*], [prefiltered], [early_exits],
    [simulated], [cycles.saved], plus [rtl.cycles] /
    [rtl.instructions] / [rtl.evals] / [rtl.full_settles] from the
    attached system) and a [detect_latency] histogram.  {!run_parallel} gives each domain a
    private {!Obs.fork} and merges them in spawn order ({!Driver.run}),
    so counter totals are identical for any domain count. *)

module C = Rtl.Circuit
module Bus_event = Sparc.Bus_event

type golden = {
  writes : Bus_event.t array;  (** off-core write stream, in order *)
  events : Bus_event.t array;  (** writes and reads *)
  cycles : int;
  instructions : int;
  stop : Leon3.System.stop_reason;
  coverage : C.coverage option;
      (** value coverage, when recorded — powers the activation
          prefilter *)
  checkpoints : Leon3.System.checkpoint array;
      (** golden state at increasing cycles, when captured — powers
          checkpointed starts and early exits *)
  trace : C.trace option;
      (** delta-compressed per-cycle value trace, when recorded —
          powers differential replay of the faulty runs *)
}

val golden_run :
  ?obs:Obs.t ->
  ?coverage:bool ->
  ?trace:bool ->
  ?checkpoint_every:int ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  max_cycles:int ->
  golden
(** Run fault-free and capture the reference behaviour.  [coverage]
    (default false) records per-bit value coverage for the activation
    prefilter; [trace] (default false) records the per-cycle value
    trace for differential replay; [checkpoint_every] captures a state
    checkpoint at that cycle interval (the set is thinned to a bounded
    count on long runs).  Raises [Failure] if the golden run itself
    traps or hits the cycle limit (the workload is broken, not the
    hardware). *)

(** Verdict types live in {!Journal} (the persistence layer cannot
    depend on this module); they are re-exported here so existing
    [Campaign.Silent]-style code keeps compiling. *)

type failure_kind = Journal.failure_kind =
  | Wrong_write of int  (** index of the first divergent write *)
  | Missing_writes of int  (** clean exit but only this many writes matched *)
  | Trap of int  (** core trapped; payload is the trap code *)
  | Hang  (** watchdog: cycle budget exhausted *)

type outcome = Journal.outcome = Silent | Failure of failure_kind

type sim_status = Journal.sim_status =
  | Simulated  (** the faulty run was executed (possibly from a checkpoint) *)
  | Prefiltered  (** provably never activates; no simulation at all *)
  | Converged of int
      (** simulated until state equality with the golden checkpoint at
          this cycle proved the rest *)
  | Pruned
      (** outside the backward cone of the observation points —
          statically silent, no simulation *)
  | Collapsed of string
      (** structurally equivalent to the named leader site's fault;
          verdict replicated from its run, no simulation *)

type run_result = Journal.run_result = {
  site_name : string;
  model : C.fault_model;
  outcome : outcome;
  detect_cycle : int option;
      (** cycle of first divergence/trap, when the run failed *)
  inject_cycle : int;
  sim : sim_status;  (** how much of the run was actually simulated *)
}

val run_one :
  ?obs:Obs.t ->
  ?plan:C.replay_plan ->
  ?detect_loops:bool ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  golden ->
  ?inject_cycle:int ->
  ?duration:int ->
  ?hang_factor:int ->
  ?compare_reads:bool ->
  Injection.site ->
  C.fault_model ->
  run_result
(** Execute one faulty run.  [duration] bounds the fault's active
    window (default permanent).  [hang_factor] scales the golden cycle
    count into the watchdog budget (default 4 — cache-degrading faults
    can legitimately run slower without failing).  [compare_reads]
    extends the lockstep comparison to read addresses (default false,
    the paper compares writes only).  Trimming follows what [golden]
    carries: coverage enables the prefilter, checkpoints enable
    resumed starts and (for bounded faults) convergence early-exit.
    When [plan] is given {e and} [golden] carries a trace, the run
    executes in differential replay — only the fanout cone of nodes
    diverging from golden is re-evaluated each cycle, and convergence
    checks are O(dirty); verdicts are identical either way.
    [detect_loops] (default false) arms {!Leon3.System.run}'s
    hang-loop detection, which short-circuits watchdog runs whose
    state provably became periodic; the batch engine enables it for
    ejected lanes.  Replay
    statistics land on [obs] as [diff.nodes_evaluated] /
    [diff.golden_evaluated] counters and [diff.dirty_peak] /
    [diff.divergence_cycles] histograms. *)

type summary = {
  injections : int;
  failures : int;
  pf : float;  (** failures / injections *)
  wrong_writes : int;
  missing_writes : int;
  traps : int;
  hangs : int;
  max_latency : int;  (** cycles, over detected failures *)
  mean_latency : float;
  skipped : int;  (** injections classified by the prefilter, unsimulated *)
  early_exits : int;  (** simulated runs cut short by checkpoint convergence *)
  pruned : int;  (** injections outside the observation cone, unsimulated *)
  collapsed : int;  (** injections replicated from a collapse-class leader *)
}

val summarize : run_result list -> summary

type config = {
  models : C.fault_model list;
  sample_size : int option;  (** [None] = exhaustive *)
  include_cells : bool;
  inject_cycle : int;
  hang_factor : int;
  compare_reads : bool;
  seed : int;
  trim : bool;
      (** trimmed execution (activation prefilter + checkpointing);
          [false] forces every injection through a full simulation *)
  checkpoint_every : int option;
      (** golden checkpoint interval in cycles; [None] = default *)
  static : bool;
      (** netlist static analysis: cone-of-influence pruning and
          structural fault collapsing ({!Analysis}); verdicts are
          byte-identical with it on or off — classification order puts
          the dynamic prefilter first, so even [skipped] matches *)
  event : bool;
      (** event-driven differential simulation: the golden run records
          a value trace and every simulated fault replays against it,
          re-evaluating only the dirty fanout cone (classification
          order: prefilter → cone prune → collapse → differential
          simulate).  Exact — verdicts, summaries and latencies are
          byte-identical with it on or off *)
  batch : bool;
      (** bit-parallel fault batching (PPSFP): permanent-fault
          injections that survive prefilter, cone prune and collapse
          run up to {!Rtl.Circuit.max_lanes} at a time as bit-lanes of
          one machine, against the golden trace.  Exact — verdicts,
          summaries and latencies are byte-identical with it on or
          off; lanes the trace cannot decide (hang candidates) fall
          back to the scalar engine automatically *)
  tail : bool;
      (** watchdog-tail machinery for the hang candidates the batch
          ejects: dense bit-parallel advance past trace end with
          per-lane cycle-proof hang classification, and lane→scalar
          state transplant so the last survivor resumes at trace end
          instead of cycle 0.  Exact — verdicts, summaries and
          latencies are byte-identical with it on or off (a proven
          state cycle can only ever end in the watchdog verdict the
          budget would have returned, with the same recorded latency).
          Only reachable when [batch] is on *)
  shard : int * int;
      (** [(i, n)]: execute only the sites whose sample index is
          congruent to [i-1 mod n] (1-based, default [(1, 1)] = all).
          Shards of the same seeded campaign are disjoint and
          covering, and — because collapse leaders are chosen over the
          global task list — the union of the [n] shards' verdicts is
          byte-identical to the unsharded run's.  Out-of-range values
          raise [Invalid_argument]. *)
}

val default_config : config
(** Stuck-at-0/1 + open-line, 400-site sample, cells included,
    injection at cycle 0, watchdog 4x, writes-only compare, seed 7,
    trimming, static analysis, differential simulation, bit-parallel
    batching and the watchdog tail on, shard 1/1. *)

val fingerprint :
  config:config ->
  Sparc.Asm.program ->
  Injection.target ->
  Injection.site array ->
  Journal.fingerprint
(** The identity a journal is bound to: workload + program hash,
    sampled-site-name hash (which pins netlist, target, seed, sample
    size and cell inclusion), the classification-relevant config flags
    and the shard.  Exposed for merge tooling and tests. *)

type static_info = {
  cone : Analysis.Graph.cone;  (** backward cone of the observation points *)
  collapse : Analysis.Collapse.t;  (** structural fault equivalences *)
}

val build_static : ?obs:Obs.t -> ?graph:Analysis.Graph.t -> Leon3.Core.t -> static_info
(** The per-campaign static analysis (also usable standalone): graph
    extraction, observation cone from {!Leon3.Core.observation_points},
    the post-dominator tree toward those points and the collapse table
    (classic rules plus dominance) keeping those points
    un-collapsible.  [graph] reuses an already-extracted dependency
    graph (the campaign shares one extraction between this and the
    replay plan).  Recorded under an [Obs] span named
    ["static_analysis"], with per-phase child spans ["static.graph"],
    ["static.dominator"] and ["static.collapse"]. *)

type prepared
(** Everything shard-independent and expensive about a campaign —
    golden run (with coverage, checkpoints, trace), static analysis,
    compiled replay plan, per-task classification — packaged for
    reuse.  This is the value the serve layer's content-addressed
    golden-trace cache stores: any number of {!run}/{!run_parallel}
    invocations (any shard of the same campaign) may consume one
    preparation instead of recomputing it.  Immutable after
    construction; safe to share across domains and across forked
    worker processes. *)

val prepare :
  ?config:config ->
  ?obs:Obs.t ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  Injection.target ->
  prepared
(** Run the golden simulation and static analysis up front.  The
    [config.shard] field is ignored (the preparation is
    shard-normalised).  [obs] receives the usual [golden] /
    [static_analysis] / [site_sampling] spans. *)

val prepared_fingerprint : prepared -> Journal.fingerprint
(** The campaign identity the preparation was built for, shard
    normalised to [(1, 1)] — the serve layer's cache key material. *)

val run :
  ?config:config ->
  ?obs:Obs.t ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  ?resume:bool ->
  ?prepared:prepared ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  Injection.target ->
  (C.fault_model * summary) list * run_result list
(** Full campaign for one workload and one target block: golden run,
    site sampling, every model over the same sampled sites (restricted
    to [config.shard]).  Returns per-model summaries plus every
    individual result, in model-major task order.

    [run] is {!run_parallel} at one domain on the caller's system
    ([run_parallel ~domains:1 (fun () -> sys)]): it spawns no domain,
    so the process may still [fork] afterwards.  Sharding, [journal],
    [resume] and [on_progress] are the shared campaign driver's
    ({!Driver.run}): every verdict is journaled crash-safely, a resumed
    journal replays byte-identically (counted as [journal.replayed])
    and a stale one raises {!Journal.Rejected}.  If the journal already
    holds the whole shard, the golden run and static analysis are
    skipped entirely.  The system's telemetry collector and hang-cone
    setting are restored on every exit, exceptions included.

    [prepared] supplies a {!prepare}d golden run + static analysis
    instead of recomputing them.  The preparation's fingerprint is
    validated against this campaign's own (cheaply recomputed) one —
    any field but the shard differing raises [Invalid_argument], so a
    cache cannot splice a foreign golden trace into a campaign. *)

val pf_percent : summary -> float
(** [100 * pf], as the paper's figures report. *)

val run_parallel :
  ?config:config ->
  ?obs:Obs.t ->
  ?domains:int ->
  ?on_progress:(done_:int -> total:int -> unit) ->
  ?journal:string ->
  ?resume:bool ->
  ?prepared:prepared ->
  (unit -> Leon3.System.t) ->
  Sparc.Asm.program ->
  Injection.target ->
  (C.fault_model * summary) list * run_result list
(** Like {!run}, over [domains] OCaml domains (default 4).  The
    factory is called once for the caller's scratch system and once
    inside each further domain; golden coverage, checkpoints, trace and
    replay plan are shared read-only, and verdicts, summaries and
    journal records are identical for every domain count.  Work units
    are PPSFP batch chunks and single injections; collapse followers
    resolve in an in-order pass after the fan-out.  Progress, telemetry
    forks and worker-exception semantics are {!Driver.run}'s. *)

val run_transient :
  ?sample:int ->
  ?seed:int ->
  ?trim:bool ->
  ?event:bool ->
  ?checkpoint_every:int ->
  ?obs:Obs.t ->
  Leon3.System.t ->
  Sparc.Asm.program ->
  Injection.target ->
  summary
(** Single-event-upset campaign (the paper's stated future work):
    one-cycle bit inversions at uniformly random instants, one instant
    per sampled site.  With [trim] (default true) each run starts at
    the last golden checkpoint before its instant and early-exits on
    state re-convergence; with [event] (default true) each run replays
    differentially against the golden trace — for a 1-cycle upset the
    dirty set typically collapses to empty within a few cycles, which
    is also what makes the convergence check O(dirty).  Verdicts are
    unchanged by either. *)
