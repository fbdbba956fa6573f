(** Content-addressed golden-trace + static-analysis cache.

    Stores one prepared campaign per entry — a
    {!Fault_injection.Campaign.prepared} or
    {!Fault_injection.Iss_campaign.prepared}, held by the entry's
    [run_shard] closure — under a canonical key derived from every
    spec field the preparation depends on.  A hit means a repeat (or
    concurrent shard of a) submission runs no golden simulation and no
    static analysis; the consuming campaign still validates the
    preparation's fingerprint against its own, so a key collision
    cannot splice a foreign golden trace in.  LRU bounded;
    single-threaded (the daemon's event loop owns it). *)

type entry = {
  run_shard :
    shard:int * int ->
    journal:string ->
    on_progress:(done_:int -> total:int -> unit) ->
    Fault_injection.Journal.run_result list;
      (** Run one shard of the prepared campaign on a fresh engine
          context, journaling to (and resuming from) [journal];
          returns the shard's verdicts.  Raises
          {!Fault_injection.Journal.Rejected} on a stale journal. *)
}

type t

val create : ?obs:Obs.t -> ?capacity:int -> unit -> t
(** [capacity] (default 8) bounds retained preparations, evicting the
    least recently used.  Hits and misses are counted on [obs] as
    [serve.cache.hits] / [serve.cache.misses]. *)

val key : prog_hash:int -> Protocol.spec -> string
(** The content address: engine, program hash (which binds workload,
    iterations and dataset), gate-level flag, target, sample size,
    seed and hang factor.  The shard count is deliberately absent —
    preparations are shard-independent. *)

val find_or_build : t -> key:string -> build:(unit -> entry) -> entry * bool
(** Return the cached value and [true], or [build ()], remember it
    and return [false].  [build]'s exceptions propagate and cache
    nothing. *)

val hits : t -> int

val misses : t -> int
