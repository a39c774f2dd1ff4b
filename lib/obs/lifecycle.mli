(** Per-PDU lifecycle spans over the CO receipt ladder.

    A sequenced PDU's life is stamped at: application [submit] (per source),
    [first_send] (sequence number assigned, first broadcast), then per
    receiving entity [accept] → [preack] → [ack] (the paper's three-level
    atomic receipt: acceptance, pre-acknowledgment, acknowledgment) and, for
    data PDUs, [deliver] (which the protocol makes coincide with
    acknowledgment). Times are whatever integer clock the embedder stamps
    with — simulated {!Repro_sim.Simtime.t} in the simulator, wall-clock
    microseconds over UDP; the tracker only ever subtracts them.

    From these stamps the tracker feeds:
    - [co_ladder_stage_seconds{stage="accept"|"preack"|"ack"|"deliver"}] —
      latency from first send to each receipt level, across all entities;
    - [co_submit_queue_seconds] — submit → first send (flow-condition
      queueing delay at the source).

    A {e span} is the (entity, PDU) interval from acceptance to
    acknowledgment. The tracker counts spans opened and closed and flags
    span bugs instead of silently mis-stamping: closing a span that is not
    open (double acknowledgment), stamping a ladder level out of order, or
    observing a negative latency all increment error counters that tests
    and the exposition lint assert to be zero. *)

type t

val create : ?registry:Registry.t -> unit -> t
(** Histograms are registered in [registry] (a private registry is created
    when omitted), so exposition sees them even before the first sample. *)

val registry : t -> Registry.t

(** {2 Stamps} *)

val submit : t -> src:int -> now:int -> unit
(** An application DT request entered entity [src] (it may be queued by the
    flow condition before transmission). *)

val first_send : t -> src:int -> seq:int -> data:bool -> now:int -> unit
(** Fresh sequenced PDU broadcast. [data] is false for empty confirmations
    (which never passed through {!submit}). *)

val accept :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit

val preack :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit

val ack : t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit
(** The [data] flag scopes span bookkeeping: stage latencies are recorded
    for every sequenced PDU, but spans are opened/closed only for data PDUs
    ([data = true]) — the trailing empty confirmations of a run are never
    acknowledged, so tracking them would report orphan spans on every
    complete run. *)

val deliver : t -> entity:int -> src:int -> seq:int -> now:int -> unit

val deliver_batch : t -> size:int -> unit
(** One ACK-scan drain acknowledged [size] PDUs in a row. Feeds the
    [co_deliver_batch_size] histogram (a count, not a latency); zero-sized
    scans are not recorded. *)

val abandon_entity : t -> entity:int -> incarnation:int -> unit
(** Entity [entity] crashed while running as [incarnation]: close its
    open spans as {e abandoned} — counted in {!spans_abandoned} and the
    [co_spans_abandoned_total{entity=...,incarnation=...}] counter —
    instead of leaking them or letting the restarted incarnation's
    ladder stamps stitch onto them. The abandoned keys are remembered:
    post-restart preack/ack/deliver stamps for those PDUs (the
    checkpointed entity resumes mid-ladder) are accepted silently rather
    than flagged as span errors, but they never reopen or close a
    span. *)

val new_epoch : t -> unit
(** A membership cut re-homed the ranks: forget every first-send stamp.
    New-epoch PDUs reuse [(src, seq)] keys — a rank shifted down by a
    leave continues its own numbering under the departed rank's [src] —
    and must not inherit the closed epoch's send times. Call only at a
    reconciled cut (no span open); the cid guard fences every older
    PDU, so no closed-epoch stamp is looked up again. *)

(** {2 Results} *)

type ladder = {
  queue : Histogram.snapshot;  (** submit → first send, µs. *)
  accept : Histogram.snapshot;  (** first send → acceptance, µs. *)
  preack : Histogram.snapshot;
  ack : Histogram.snapshot;
  deliver : Histogram.snapshot;
}

val ladder : t -> ladder

val spans_opened : t -> int
val spans_closed : t -> int

val spans_abandoned : t -> int
(** Spans closed by {!abandon_entity} rather than by acknowledgment. *)

val open_spans : t -> int
(** Accepted but not yet acknowledged (entity, PDU) pairs — 0 at
    quiescence; a nonzero value after a complete run is an orphan span. *)

val close_errors : t -> int
(** Acknowledgments with no matching open span (double-ack or
    ack-before-accept). Must be 0. *)

val order_errors : t -> int
(** Ladder stamps out of order or with negative latency (preack/deliver on
    a closed or never-opened span, clock regression). Must be 0. *)
