(** Protocol parameters of a CO entity.

    The names follow §4 of the paper: [W] is the window size, [H] the buffer
    units one PDU occupies; the flow condition divides the advertised buffer
    by [H·2n] because with deferred confirmation O(n) PDUs are in flight per
    round and a PDU waits up to two rounds (pre-ack + ack) before it can be
    discarded. *)

type defer_policy =
  | Immediate
      (** Confirm every receipt with its own PDU — the O(n²) traffic mode the
          paper argues against; kept for experiment E2. *)
  | Deferred of { timeout : Repro_sim.Simtime.t }
      (** Paper's deferred confirmation: send one (possibly empty) PDU after
          hearing from every other entity, or after [timeout] since the first
          unconfirmed receipt. *)
  | Never
      (** No automatic confirmations at all: only explicit {!Entity.submit}
          traffic carries ACK vectors. For hand-driven unit tests and
          ablations; a real cluster needs data from every entity to make
          progress under this policy. *)

type causality_mode =
  | Direct
      (** The paper's literal Theorem 4.1 test: [p ≺ q] iff [q]'s sender had
          directly accepted a PDU from [p]'s source at or beyond [p]. Misses
          chains relayed through a third entity that [q]'s sender never heard
          from directly — see DESIGN.md §7 and experiment E8. *)
  | Transitive
      (** Corrected test: the transitive closure of the one-hop relation,
          computed from the headers of accepted PDUs (reach vectors). By the
          in-order-acceptance invariant, every real causal predecessor of a
          PDU has been accepted by the time the PDU is pre-acknowledged, so
          the closure equals true happened-before. Default. *)

type check_level =
  | Off  (** No runtime invariant checking (production default). *)
  | Cheap
      (** O(n²) structural assertions after every protocol step: PAL ≤ AL
          pointwise, the flow window bound on SEQ, REQ-self sanity. *)
  | Paranoid
      (** [Cheap] plus full log-walking invariants (RRL contiguity, PRL as a
          linear extension of ≺, pending-above-REQ) and, when a checker from
          [Repro_check.Runtime] is installed, the complete external catalog
          with cross-step monotonicity and delivery-order monitoring. *)

type fault =
  | Skip_minpal_gate
      (** Acknowledge (and deliver) the PRL top without waiting for
          [SEQ < minPAL_src] — breaks causal delivery under reordering. *)
  | Skip_cpi_order
      (** Append to PRL in receipt order instead of CPI position — breaks
          the linear-extension invariant. *)
  | Skip_epoch_guard
      (** Accept PDUs regardless of their cid stamp — breaks the membership
          layer's epoch fence: stale closed-epoch stragglers reach the
          protocol engine and trip [no-cross-epoch-delivery]. *)
(** Deliberate protocol bugs, injectable only through configuration, used to
    prove that the checking layers ({!Repro_check.Explorer}, runtime
    assertions, [colint]) actually catch violations. Never set outside
    negative tests. *)

type wire_version =
  | V1
      (** PR-3 fixed-width big-endian codec: 4 bytes per ACK component,
          one PDU per datagram. Kept as the paper-literal reference (E5
          header sizes, the v1-vs-v2 differential suite); the simulated
          hosts frame with it, the UDP transport rejects it. Ingress
          decodes either version regardless of this switch. *)
  | V2
      (** Compressed codec (DESIGN.md §14): varint fields, delta-encoded
          ACK vectors, multiple DATA PDUs batched per datagram under one
          shared header. Default. *)

val wire_name : wire_version -> string
(** ["v1"] / ["v2"], for artifact and metric labels. *)

type t = {
  cid : int;  (** Cluster identifier stamped on every PDU. *)
  epoch : int;
      (** Membership epoch this entity belongs to (0 for a static cluster).
          Informational at this layer — the entity never compares epochs on
          the wire. The membership layer ({!Repro_member.Group}) derives a
          per-epoch [cid] so the existing cluster-id guard in the receive
          path rejects cross-epoch PDUs, and uses [epoch] for metric labels
          and assertions. *)
  window : int;  (** [W], per-source send window. *)
  buf_units_per_pdu : int;  (** [H]. *)
  defer : defer_policy;
  ret_retry_timeout : Repro_sim.Simtime.t;
      (** Re-issue a RET if the gap is still open after this long (the RET
          itself, or the retransmission, may be lost). This is the {e base}
          of the retry schedule; see [ret_backoff_factor]. *)
  ret_backoff_factor : int;
      (** Multiply the retry delay by this after each unanswered RET
          (exponential backoff), capped at [ret_backoff_max]. [1] recovers
          the paper's fixed-interval timer. The delay resets to
          [ret_retry_timeout] whenever the gap makes progress. *)
  ret_backoff_max : Repro_sim.Simtime.t;
      (** Ceiling of the backed-off retry delay. Must be at least
          [ret_retry_timeout]. *)
  ret_jitter_pct : int;
      (** Spread each armed retry uniformly over
          [delay .. delay · (100 + pct) / 100] so retries from entities that
          lost the same datagram don't synchronize. [0] disables jitter
          (deterministic replay in unit tests). *)
  anti_entropy : bool;
      (** Answer a peer whose ACK vector is behind with an unsequenced CTL
          confirmation so it can detect its loss (liveness at quiescence; see
          DESIGN.md). *)
  initial_buf : int;
      (** BUF value assumed for every peer before its first PDU arrives. *)
  retain_arl : bool;
      (** Keep acknowledged PDUs in ARL for inspection. Experiments with
          millions of PDUs turn this off; delivery callbacks fire either
          way. *)
  causality_mode : causality_mode;
  check_level : check_level;
  fault : fault option;  (** Fault injection for checker self-tests. *)
  wire : wire_version;
      (** Which codec transmissions are framed with; decoding always
          accepts both versions. The switch never changes protocol
          decisions — the
          differential wire-equivalence suite holds v1 and v2 runs
          observationally equal. *)
  tracing : bool;
      (** Carry a per-PDU trace context (DESIGN.md §15) on outgoing v2
          DATA frames and record causal critical paths through the
          receipt ladder. Costs 8 bytes per DATA item on the wire when
          on; when off the encoded frames are byte-identical to
          untraced v2 and the probes never fire. Decoding always
          accepts traced frames. Like [wire], never changes protocol
          decisions:
          the tracing-equivalence suite holds traced and untraced runs
          observationally equal. *)
}

val default : t
(** cid 0, W = 8, H = 1, deferred confirmation with 5ms timeout, 20ms RET
    retry doubling up to 320ms with 20% jitter, anti-entropy on, initial
    buffer 64, checking off, no fault, v2 wire, tracing off. *)

val validate : t -> unit
(** @raise Invalid_argument on nonsensical parameters. *)
