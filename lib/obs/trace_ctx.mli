(** Per-PDU trace contexts and the causal-trace recorder (DESIGN.md §15).

    A {e trace context} identifies one sequenced data PDU across the whole
    cluster: the origin entity, the origin sequence number, and a 64-bit
    trace id derived deterministically from a run-level salt (itself drawn
    from the run's seeded PRNG), so every node — and every offline tool
    holding the seed — computes the same id for the same PDU without
    coordination. The id travels on the wire as the optional v2 frame
    extension ({!Repro_pdu.Codec.encode_traced}); it is what lets a
    Perfetto capture from one node be joined against another node's.

    The {e recorder} is the run-side collector: the cluster's entity
    probes stamp it at first send, first receive, park (out-of-sequence
    buffering), accept, pre-ack and delivery, and it assembles one
    {!span} per (entity, data PDU) delivery. Spans are pure data; the
    {!Critpath} analyzer classifies them into delay segments, aggregates
    registry histograms and renders Perfetto JSON. Stamps are whatever
    integer µs clock the embedder uses (simulated time in the simulator,
    monotonic µs over UDP); only differences matter.

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

val create : salt:int64 -> unit -> t

val salt : t -> int64

val on_send : t -> src:int -> seq:int -> now:int -> unit
(** First broadcast of a fresh data PDU (retransmissions must not
    re-stamp; callers fire this from the entity's first-send probe which
    already guarantees it). *)

val on_receive : t -> entity:int -> src:int -> seq:int -> now:int -> unit
(** Any arrival; only the first per (entity, PDU) is kept. *)

val on_park : t -> entity:int -> src:int -> seq:int -> unit
(** The PDU was buffered out-of-sequence at [entity]; marks the span's
    accept wait as RET recovery rather than batch queueing. *)

val on_accept : t -> entity:int -> src:int -> seq:int -> now:int -> unit
val on_preack : t -> entity:int -> src:int -> seq:int -> now:int -> unit

val on_deliver : t -> entity:int -> src:int -> seq:int -> now:int -> unit
(** Completes the span. Spans missing a send or receive stamp (PDU from
    before instrumentation was attached) are dropped and counted in
    {!incomplete}. *)

val abandon_entity : t -> entity:int -> unit
(** Entity crash: discard its open partial spans (counted in
    {!abandoned}) and bump its incarnation, so post-restart stamps can
    never stitch onto pre-crash ones. Call once per crash {e and} once
    per restart, mirroring the cluster's incarnation counter. *)

val new_epoch : t -> unit
(** A membership cut re-homed the ranks: forget every send stamp and
    partial span. New-epoch PDUs reuse [(src, seq)] keys (see
    {!Lifecycle.new_epoch}), and a reconciled cut has delivered every
    data PDU, so the only partials left are first-receive stubs of
    duplicates. The cid guard fences every older PDU. *)

val spans : t -> span list
(** Completed spans, in completion order. *)

val span_count : t -> int
val abandoned : t -> int
val incomplete : t -> int

val open_count : t -> int
(** Partial spans still accumulating stamps — 0 at quiescence. *)
