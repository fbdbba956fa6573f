(** Shard scheduler: forked worker processes with requeue-on-crash.

    Every shard of every accepted job runs in its own forked child
    process, which inherits the cached campaign preparation (golden
    trace + static analysis) by copy-on-write and journals its
    verdicts to [DIR/job-N/shard-K.jsonl].  A child that dies — crash,
    OOM, [kill -9] — is re-enqueued up to [max_retries] times; the
    requeued shard resumes from its journal, whose fingerprint makes
    the replay byte-identical, so a crash can change scheduling but
    never a verdict.  When a job's shard cover completes, the shard
    journals are {!Fault_injection.Journal.merge}d and rendered
    through {!Render} (the `ricv merge` code path) into
    [DIR/job-N/summary.txt].

    Single-threaded and poll-driven: the owner calls {!pump}
    repeatedly (the daemon does so from its select loop). *)

type t

type event =
  | Progress of { job : int; shard : int; done_ : int; total : int }
  | Requeued of { job : int; shard : int; attempt : int }
  | Job_done of { job : int; table : string list; requeues : int }
  | Job_failed of { job : int; reason : string }

val create :
  ?obs:Obs.t ->
  ?workers:int ->
  ?max_retries:int ->
  ?cache_capacity:int ->
  ?on_fork_child:(unit -> unit) ->
  dir:string ->
  unit ->
  (t, string) result
(** Open (or recover) the queue at [dir] and build the scheduler.
    [workers] (default 2) bounds concurrent shard processes;
    [max_retries] (default 2) bounds per-shard crash requeues before
    the job fails; [on_fork_child] runs first in every forked worker
    (the daemon closes its sockets there).  Recovery re-enqueues the
    unfinished shards of unfinished jobs; their on-disk journals
    resume byte-identically.  If [obs] is {!Obs.null} a private live
    collector is created anyway, so cache and golden-run counters are
    always observable. *)

val build_engine : ?obs:Obs.t -> Protocol.spec -> Sparc.Asm.program -> Cache.entry
(** Prepare a spec's campaign for [program] — the golden run and, for
    the RTL engine, static analysis, recorded on [obs] — and close its
    shard runner over the preparation: the value the golden-trace
    cache stores.  The only place the spec's engine is dispatched on. *)

val submit : t -> Protocol.spec -> (int * bool, string) result
(** Validate, prepare (through the golden-trace cache) and enqueue a
    campaign.  Returns the job id and whether the preparation was a
    cache hit.  Errors (unknown workload, invalid numerics, a golden
    run that itself fails) leave the scheduler unchanged. *)

val pump : t -> timeout:float -> event list
(** One scheduling step: start pending shards while worker slots are
    free, wait up to [timeout] seconds for worker progress, reap
    exited workers (completing, failing or requeuing their shards) and
    return the events that occurred. *)

val pipe_fds : t -> Unix.file_descr list
(** The live worker progress pipes — for the daemon's [select]. *)

val job_result :
  t -> int -> [ `Unknown | `Running | `Done of string list * int | `Failed of string ]
(** A job's terminal state: [`Done (table, requeues)] carries the
    rendered verdict table. *)

val idle : t -> bool
(** No shard pending or running. *)

val status_json : t -> Obs.Json.t
(** Service status: every job with per-shard progress (and worker
    pids), cache hit/miss totals, the golden-run count and the requeue
    count. *)

val golden_runs : t -> int
(** Number of golden simulations performed since start (the counter
    behind the "a cache hit runs no golden cycles" guarantee). *)

val cache_stats : t -> int * int
(** (hits, misses) of the golden-trace cache. *)

val obs : t -> Obs.t
(** The live collector (the caller's, or the private one). *)

val shutdown : t -> unit
(** Kill running workers (their journals resume on restart) and close
    the queue. *)
