(** Per-PDU trace contexts and the causal-trace recorder (DESIGN.md §15).

    A {e trace context} identifies one sequenced data PDU across the whole
    cluster: the origin entity, the origin sequence number, and a 64-bit
    trace id derived deterministically from a run-level salt (itself drawn
    from the run's seeded PRNG), so every node — and every offline tool
    holding the seed — computes the same id for the same PDU without
    coordination. The id travels on the wire as the optional v2 frame
    extension ({!Repro_pdu.Codec.encode_traced}); it is what lets a
    Perfetto capture from one node be joined against another node's.

    The {e recorder} is the one span recorder of a run: the cluster's
    entity probes stamp it at submit, first send, first receive, park
    (out-of-sequence buffering), accept, pre-ack, delivery and
    acknowledgment — the paper's three-level atomic receipt (acceptance,
    pre-acknowledgment, acknowledgment), with delivery coinciding with
    acknowledgment for data PDUs. From those stamps it feeds:
    - [co_ladder_stage_seconds{stage="accept"|"preack"|"ack"|"deliver"}] —
      latency from first send to each receipt level, across all entities;
    - [co_submit_queue_seconds] — submit → first send (flow-condition
      queueing delay at the source);
    - [co_deliver_batch_size] — acknowledgments per ACK scan;
    - [co_spans_abandoned_total] — ladder spans cut short by crashes;

    it checks the ladder-span discipline (see {!spans_opened}), and it
    assembles one {!span} per (entity, data PDU) delivery. Spans are pure
    data; the {!Critpath} analyzer classifies them into delay segments,
    aggregates registry histograms and renders Perfetto JSON. Stamps are
    whatever integer µs clock the embedder uses (simulated time in the
    simulator, monotonic µs over UDP); only differences matter.

    Recording never feeds back into the protocol: a traced and an
    untraced run of the same seed are observationally identical, which
    the tracing-equivalence property suite asserts. *)

type span = {
  entity : int;  (** Where the delivery happened. *)
  incarnation : int;  (** Of [entity] when the span completed. *)
  src : int;  (** Origin entity. *)
  seq : int;  (** Origin sequence number. *)
  trace_id : int64;
  t_send : int;  (** First broadcast at the origin, µs. *)
  t_recv : int;  (** First arrival of the PDU at [entity], µs. *)
  parked : bool;
      (** The PDU arrived out-of-sequence and waited, parked, for RET
          gap repair before it could be accepted. *)
  t_accept : int;
  t_preack : int;
  t_deliver : int;  (** Delivery = acknowledgment for data PDUs. *)
}

val id : salt:int64 -> src:int -> seq:int -> int64
(** The trace id of PDU (src, seq) under [salt]: a splitmix64-style hash,
    stable across OCaml versions and processes. *)

val salt_of_seed : seed:int -> int64
(** The run salt every component derives from the run seed (one
    {!Repro_util.Prng} draw off a stream split from it, so it is
    decorrelated from the seed's other uses). *)

(** {2 Recorder} *)

type t

val create : salt:int64 -> ?registry:Registry.t -> unit -> t
(** Ladder histograms are registered in [registry] (a private registry is
    created when omitted), so exposition sees them even before the first
    sample. *)

val salt : t -> int64

(** {2 Stamps}

    One call per probe site. The [data] flag is false for empty
    confirmations: stage latencies are recorded for every sequenced PDU,
    but partial and ladder spans are kept for data PDUs only — the
    trailing empty confirmations of a run are never acknowledged, so
    tracking them would report orphan spans on every complete run. *)

val on_submit : t -> src:int -> now:int -> unit
(** An application DT request entered entity [src] (it may be queued by the
    flow condition before transmission). *)

val on_send : t -> src:int -> seq:int -> data:bool -> now:int -> unit
(** Fresh sequenced PDU broadcast (retransmissions must not re-stamp;
    the entity's first-send probe already guarantees it). A data PDU pops
    its source's oldest submit stamp into [co_submit_queue_seconds]. *)

val on_receive :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit
(** Any arrival; only the first per (entity, PDU) is kept. *)

val on_park : t -> entity:int -> src:int -> seq:int -> data:bool -> unit
(** The PDU was buffered out-of-sequence at [entity]; marks the span's
    accept wait as RET recovery rather than batch queueing. *)

val on_accept :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit
(** Opens the (entity, PDU) ladder span. *)

val on_preack :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit

val on_deliver : t -> entity:int -> src:int -> seq:int -> now:int -> unit
(** Completes the delivery span. Delivery happens inside acknowledgment,
    so it must find the ladder span still open. Spans missing a send or
    receive stamp (PDU from before instrumentation was attached, or whose
    partial a crash discarded) are dropped and counted in {!incomplete}. *)

val on_ack :
  t -> entity:int -> src:int -> seq:int -> data:bool -> now:int -> unit
(** Closes the ladder span; fires after {!on_deliver} for data PDUs. *)

val on_deliver_batch : t -> size:int -> unit
(** One ACK-scan drain acknowledged [size] PDUs in a row. Feeds the
    [co_deliver_batch_size] histogram (a count, not a latency); zero-sized
    scans are not recorded. *)

val abandon_entity : t -> entity:int -> unit
(** Entity crash: discard its partial spans (counted in {!abandoned}) and
    bump its incarnation, so post-restart stamps can never stitch onto
    pre-crash ones. Open ladder spans among them are closed as
    {e abandoned} — counted in {!spans_abandoned} and the
    [co_spans_abandoned_total{entity=...,incarnation=...}] counter,
    tagged with the incarnation that died. Their keys are remembered:
    post-restart preack/ack/deliver stamps for those PDUs (the
    checkpointed entity resumes mid-ladder) are accepted silently rather
    than flagged as errors, but they never reopen or close a span. Call
    once per crash {e and} once per restart, mirroring the cluster's
    incarnation counter. *)

val new_epoch : t -> unit
(** A membership cut re-homed the ranks: forget every send stamp and
    partial span. New-epoch PDUs reuse [(src, seq)] keys — a rank shifted
    down by a leave continues its own numbering under the departed rank's
    [src] — and must not inherit the closed epoch's send times. Call only
    at a reconciled cut: it has delivered every data PDU, so no ladder
    span is open and the only partials left are first-receive stubs of
    duplicates. The cid guard fences every older PDU. *)

(** {2 Results} *)

type ladder = {
  queue : Histogram.snapshot;  (** submit → first send, µs. *)
  accept : Histogram.snapshot;  (** first send → acceptance, µs. *)
  preack : Histogram.snapshot;
  ack : Histogram.snapshot;
  deliver : Histogram.snapshot;
}

val ladder : t -> ladder

val spans : t -> span list
(** Completed delivery spans, in completion order. *)

val abandoned : t -> int
(** Partial spans discarded by {!abandon_entity}. *)

val incomplete : t -> int

(** {3 Ladder-span discipline}

    A {e ladder span} is the (entity, data PDU) interval from acceptance
    to acknowledgment. The recorder counts them and flags span bugs
    instead of silently mis-stamping: closing a span that is not open
    (double acknowledgment), stamping a ladder level out of order, or
    observing a negative latency all increment error counters that tests
    and the exposition lint assert to be zero. *)

val spans_opened : t -> int
val spans_closed : t -> int

val spans_abandoned : t -> int
(** Ladder spans closed by {!abandon_entity} rather than by
    acknowledgment. *)

val open_spans : t -> int
(** Accepted but not yet acknowledged (entity, PDU) pairs — 0 at
    quiescence; a nonzero value after a complete run is an orphan span. *)

val close_errors : t -> int
(** Acknowledgments with no matching open span (double-ack or
    ack-before-accept). Must be 0. *)

val order_errors : t -> int
(** Ladder stamps out of order or with negative latency (preack/deliver on
    a closed or never-opened span, clock regression). Must be 0. *)
