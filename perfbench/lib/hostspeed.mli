(** Host-speed probe: scales CPU-bound durations to a nominal host.

    On a shared host the same code runs up to 1.8 times slower minutes
    apart, because other tenants contend for the cores it runs on. A
    workload calls {!probe} at regular points while its own work runs, so
    the probe's kernel is slowed by the same contention as the work around
    it. A duration measured over that stretch of time, divided by the
    kernel's mean pass and multiplied by {!nominal_s}, depends much less on
    how busy the host was: it is the duration on a host where one pass
    takes {!nominal_s}.

    The kernel is fixed code of this benchmark, independent of the program
    under test, and allocates nothing, so a change to the program moves a
    scaled duration in the same proportion as the raw one. *)

type t

val nominal_s : float
(** One pass of the kernel on the nominal host: 0.25 ms, about what a pass
    took on a 2-vCPU Xeon (Sapphire Rapids) KVM guest. *)

val create : unit -> t

val probe : t -> unit
(** Run one pass of the kernel and record its wall and CPU time. *)

val passes : t -> int

val wall_s : t -> float
(** Total wall time spent in {!probe}: subtract it from a duration that
    covered the probes. *)

val cpu_s : t -> float
(** Total process CPU time spent in {!probe}. *)

val scale : t -> float -> float
(** [scale t d]: wall duration [d], measured while [t] was probed, on the
    nominal host: [d] times {!nominal_s} over the mean wall time of a pass
    ([d] itself before the first probe). *)

val scale_cpu : t -> float -> float
(** [scale_cpu t c]: process CPU time [c], measured while [t] was probed,
    on the nominal host, scaled by the mean CPU time of a pass. *)

val during : t -> every:float -> (unit -> 'a) -> 'a
(** [during t ~every f] runs [f] with {!probe} called every [every] seconds
    of wall time, from a [SIGALRM] interval timer: the probes land wherever
    [f] happens to be, independent of its structure. Only for code that
    makes no system calls a signal could interrupt. *)
