(** Host-speed probe.

    On a shared host the speed of this process's core moves by up to
    1.5x within seconds.  The probe samples that speed from inside the
    benchmark process: every 50 ms it times one pass of a fixed kernel,
    a bit-parallel evaluation of a random 4096-gate netlist, whose code
    never changes with the libraries under test.  A timing divided by
    the host's slowdown over the same interval is steadier than the raw
    timing. *)

val start : unit -> unit
(** Start sampling every 50 ms of this process's CPU time, from a
    signal handler, for work done in this process.  Only the first
    [start] or [start_beside] of a process takes effect. *)

val start_beside : unit -> unit
(** Start sampling every 50 ms of wall time, from a thread of its own,
    for a process that waits on work done in other processes: the
    slowdown it sees tracks theirs, though less closely. *)

type mark

val mark : unit -> mark
(** The sampling position now. *)

val slowdown : mark -> float
(** The median pass time since [mark], divided by 0.5 ms, the pass
    time in the fast phase of the 2-vCPU Xeon VM the benchmark was tuned
    on; 1.0 when no pass was taken. *)

val overhead : mark -> float
(** Seconds spent in passes since [mark]. *)
