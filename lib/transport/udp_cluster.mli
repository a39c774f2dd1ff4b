(** The CO protocol over real UDP sockets.

    The {!Repro_core.Entity} state machine is transport-agnostic; this module
    runs a whole cluster of them over loopback UDP datagrams in real time —
    one socket per entity, PDUs serialized with {!Repro_pdu.Codec}, timers
    against the wall clock, a single-threaded [select] event loop. UDP
    supplies genuine reordering-free-but-lossy per-channel semantics close to
    the paper's MC service. Injected faults (loss, corruption, duplication,
    partitions) come from outside through {!set_fault_hook} — typically a
    seeded {!Repro_fault.Injector.on_datagram}, the same fault interpreter
    the simulator runs.

    This is the "production" face of the library: what a deployment on a real
    LAN segment would look like, minus multicast group management. *)

type t

val create :
  ?registry:Repro_obs.Registry.t ->
  ?seed:int ->
  ?config:Repro_core.Config.t ->
  n:int ->
  unit ->
  t
(** Bind [n] UDP sockets on ephemeral loopback ports and attach one CO entity
    to each. [seed] (default 0) salts the trace ids. [registry]
    enables receipt-ladder telemetry: every entity gets a probe stamping
    {e monotonic-clock} microseconds into a {!Repro_obs.Trace_ctx.t} (see
    {!sync_registry}); the one wall-clock stamp the cluster keeps is
    {!started_at_wall}, for log headers.

    Egress is always the v2 codec: each burst of outgoing DATA PDUs to the
    same destination is coalesced into one batch datagram, framed as a
    traced 0xB3 batch carrying trace ids iff [config.tracing]. Ingress
    decodes every frame kind (v1, 0xB2, 0xB3) through
    {!Repro_pdu.Codec.decode_any}. The span recorder exists as
    {!Repro_core.Telemetry.create} rules: iff [registry] or
    [config.tracing] (see {!lifecycle} and {!tracer}).

    @raise Invalid_argument if [n < 2], [config] is invalid, or [config.wire = V1] (the v1 codec stays the
    simulator's paper-literal reference; no UDP node frames with it).
    @raise Unix.Unix_error if sockets cannot be created. *)

val size : t -> int

val submit : t -> src:int -> string -> unit
(** Issue a DT request at entity [src] immediately. *)

val step : t -> timeout_s:float -> bool
(** Run one event-loop iteration: fire due timers, then wait up to
    [timeout_s] for datagrams and process them. Returns [false] when nothing
    happened (no timer fired, no datagram arrived). *)

val run_for : t -> seconds:float -> unit
(** Drive the loop for a real-time duration, measured on the monotonic
    clock (immune to wall-clock steps). *)

val run_until_quiescent : t -> max_seconds:float -> bool
(** Drive the loop until every entity has no undelivered data, no pending
    out-of-sequence PDUs and no queued requests (then drain briefly), or the
    deadline passes. Returns whether quiescence was reached. *)

(** An administrative membership change. [Add_node] binds a fresh socket
    and joins it as the new view's last rank; [Remove_node l] closes rank
    [l]'s socket and shifts higher ranks down. *)
type change = Add_node | Remove_node of int

val reconciled : t -> bool
(** The view-change barrier's commit precondition: every node has drained
    its protocol work and egress queue, and all REQ vectors agree.
    Datagrams may still sit in kernel buffers — after a cut those are
    duplicates of PDUs every member already accepted, which the next
    epoch's cid guard fences off. *)

val commit_view_change : t -> change -> (unit, string) result
(** Commit a membership change: close the epoch and rebuild every member
    of the next view through {!Repro_member.Epoch_cut.rebuild} — the same
    cut {!Repro_member.Group} and the model checker commit. A joiner
    restores the sponsor's (rank 0's) blob — the co-checkpoint-v1 state
    transfer, shipped in-process since its socket is born here. The
    recorders forget their send stamps (new-epoch PDUs reuse
    [(src, seq)] keys), the closing epoch's timers are abandoned (a dead
    epoch's heartbeat or RET retry never fires into the new view) and
    every new entity is {!Repro_core.Entity.kick}ed.

    This is the {e mechanism} half of membership over real sockets: the
    caller plays coordinator and must first drive the cluster to the
    barrier ({!run_until_quiescent}); [Error] reports an unmet
    {!reconciled} precondition and commits nothing. The full timer-driven
    barrier protocol (quiesce/reconcile/repair, suspicion-driven eviction)
    lives in {!Repro_member.Group} over the simulated medium.

    @raise Invalid_argument on a closed cluster, an out-of-range rank, or
    a removal that would shrink the view below 2. *)

val epoch : t -> int
(** Committed membership epoch (0 at creation). *)

val view_changes : t -> int
(** Committed view changes (mirrored as [co_view_changes_total] by
    {!sync_registry}). *)

val deliveries : t -> entity:int -> Repro_pdu.Pdu.data list
(** Application deliveries at [entity], in causal delivery order — across
    epochs for a member that survived view changes. *)

val entity : t -> int -> Repro_core.Entity.t

val port : t -> int -> int
(** UDP port entity [i] is bound to on 127.0.0.1 (e.g. to point an external
    packet source, or a test injecting hostile datagrams, at it). *)

val set_fault_hook : t -> (dst:int -> src:int -> bytes -> bytes list) -> unit
(** [set_fault_hook t f]: every incoming datagram is first mapped through
    [f ~dst ~src dg] ([src] is the sending entity resolved from the
    datagram's source address, or [-1] if external), which returns the
    copies actually processed: [[]] discards it, a mangled copy models
    in-flight corruption (the decode path then rejects it via the codec
    checksum, counted in {!decode_errors}), several copies model
    duplication. This is the same contract as the simulator's
    {!Repro_sim.Network.set_fault_hook}, so one
    {!Repro_fault.Injector.on_datagram} closure serves both transports
    (it passes an external sender's datagrams through untouched).
    Replaces any previous hook. *)

val clear_fault_hook : t -> unit

val datagrams_sent : t -> int

val datagrams_faulted : t -> int
(** Datagrams the fault hook discarded outright. *)

val decode_errors : t -> int
(** Datagrams the decode path rejected (one per bad datagram, however many
    PDUs it claimed to carry). *)

val wirestats : t -> Repro_obs.Wirestats.t
(** Egress wire accounting: datagrams, PDUs, total and header bytes put on
    the wire (loopback self-copies excluded — they never serialize). The
    [wire] label is always ["v2"]. *)

val lifecycle : t -> Repro_obs.Trace_ctx.t option
(** The span recorder, present iff [create] got a [?registry]: its
    receipt ladder and span-discipline counters. *)

val tracer : t -> Repro_obs.Trace_ctx.t option
(** The same span recorder, present iff [config.tracing]; its salt is
    derived from [seed]. Feed its spans to
    {!Repro_obs.Critpath} for delay attribution and Perfetto export. *)

val started_at_wall : t -> float
(** [Unix.gettimeofday] at creation — the run's single wall-clock stamp,
    kept for log/report headers only. All probe stamps and deadlines use
    the monotonic clock and are only meaningful relative to each other. *)

val sync_registry : t -> unit
(** Mirror per-entity protocol counters, the datagram totals, and the
    {!wirestats} gauges into the registry passed at [create]. Idempotent;
    no-op without one. *)

val close : t -> unit
(** Close all sockets. The [t] must not be used afterwards. *)
