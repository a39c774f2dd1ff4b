(** Growable float sample buffers and the statistics the benchmark reports.

    Appending is O(1) amortised and allocates only when the buffer doubles,
    so the UDP workload can record one latency per delivery inside the
    process whose CPU time it measures. *)

type t

val create : int -> t
(** [create capacity]: an empty buffer with room for [capacity] samples. *)

val add : t -> float -> unit
val length : t -> int

val percentile : t -> float -> float
(** [percentile t q], [q] in [\[0, 100\]]: nearest-rank on the sorted
    samples (the definition {!Repro_util.Stats.percentile} uses); [0.] when
    empty. Sorts a copy, so [t] may keep growing. *)

val percentiles : t -> float list -> float list
(** Several percentiles from one sort. *)

val median : float list -> float
(** Nearest-rank median of a list; [0.] when empty. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or [0.] when [b = 0.] — for per-layer ratios of
    a layer the workload did not exercise. *)

(** An open-loop schedule: request [g] is due at [start + g / rate]. *)
module Schedule : sig
  type t = { start : float; rate : float }

  val due : t -> int -> float
  (** Due time of request [g], in the clock's seconds. *)

  val lateness_ms : t -> int -> now:float -> float
  (** How late request [g] was issued at [now], in milliseconds; [0.] when
      it was issued on time or early. *)
end
