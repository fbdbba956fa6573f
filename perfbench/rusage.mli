(** Peak resident set size, from getrusage(2). *)

val self_mb : unit -> float
(** Peak RSS of this process so far, in MiB. *)

val children_mb : unit -> float
(** Peak RSS of the largest waited-for descendant (a reaped daemon
    folds in the workers it reaped), in MiB. *)
