(** In-memory span trace of one traced job. *)

type t

val create : unit -> t
(** A live collector that keeps every event line in memory. *)

val obs : t -> Obs.t

val obs_of : t option -> Obs.t
(** The collector, or {!Obs.null} for an untraced job. *)

val within : t option -> string -> (unit -> 'a) -> 'a
(** [within t name f] records [f ()] as span [name] when traced. *)

val lines : t -> string list
(** Every emitted event line, oldest first. *)

val self_times : t -> (string * float) list
(** Per span name, total duration minus the time covered by direct
    child spans, sorted by name. *)
