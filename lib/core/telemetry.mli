(** The span recorder an entity host keeps, and the one probe that feeds it.

    Every host of {!Entity} — the simulated {!Cluster} and the UDP
    transport — owns the same optional recorder and wires every entity to
    it the same way. This module is that wiring, so the rule for when the
    recorder exists and what each probe site stamps has a single home. *)

type t

val create : ?registry:Repro_obs.Registry.t -> seed:int -> Config.t -> t
(** A {!Repro_obs.Trace_ctx.t} recorder exists iff there is a [registry]
    or [config.tracing]; it registers its ladder families in [registry]
    and is salted with {!Repro_obs.Trace_ctx.salt_of_seed} of [seed]. *)

val registry : t -> Repro_obs.Registry.t option

val lifecycle : t -> Repro_obs.Trace_ctx.t option
(** The recorder, iff there is a registry: its ladder histograms and
    span-discipline counters are the run's receipt-ladder telemetry. *)

val tracer : t -> Repro_obs.Trace_ctx.t option
(** The recorder, iff [config.tracing]: its delivery spans are the run's
    causal trace. *)

val salt : t -> int64 option
(** The tracer's salt, i.e. [Some] iff tracing. *)

val attach : t -> id:int -> now:(unit -> int) -> Entity.t -> unit
(** Install the probe on entity [id], stamping with [now]. With a registry
    it also registers the entity's [co_pdus_received_total] counter and
    [co_ret_backoff_us] histogram. A no-op without a recorder, so an
    uninstrumented entity stays on the free no-probe path. *)

val abandon_entity : t -> entity:int -> unit
(** Entity [entity] crashed or restarted
    ({!Repro_obs.Trace_ctx.abandon_entity}); a no-op without a recorder. *)

val new_epoch : t -> unit
(** A membership cut: forget the recorder's send stamps
    ({!Repro_obs.Trace_ctx.new_epoch}). *)
