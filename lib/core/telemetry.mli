(** The recorders an entity host keeps, and the one probe that feeds them.

    Every host of {!Entity} — the simulated {!Cluster} and the UDP
    transport — owns the same pair of optional recorders and wires every
    entity to them the same way. This module is that wiring, so the rule
    for which recorders exist and what each probe site stamps has a single
    home. *)

type t = {
  registry : Repro_obs.Registry.t option;
  lifecycle : Repro_obs.Lifecycle.t option;
      (** Present iff [registry] is: the receipt-ladder tracker. *)
  tracer : Repro_obs.Trace_ctx.t option;
      (** Present iff [config.tracing]: the causal-trace recorder, salted
          with {!Repro_obs.Trace_ctx.salt_of_seed} of the run seed. *)
}

val create : ?registry:Repro_obs.Registry.t -> seed:int -> Config.t -> t

val salt : t -> int64 option
(** The tracer's salt, i.e. [Some] iff tracing. *)

val attach : t -> id:int -> now:(unit -> int) -> Entity.t -> unit
(** Install the probe on entity [id], stamping with [now]. With a registry
    it also registers the entity's [co_pdus_received_total] counter and
    [co_ret_backoff_us] histogram. A no-op when neither recorder exists,
    so an uninstrumented entity stays on the free no-probe path. *)

val new_epoch : t -> unit
(** A membership cut: forget both recorders' send stamps
    ({!Repro_obs.Lifecycle.new_epoch}, {!Repro_obs.Trace_ctx.new_epoch}). *)
