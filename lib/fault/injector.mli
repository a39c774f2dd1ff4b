(** The fault interpreter: the only code that turns a {!Plan} into faults.

    One injector instance holds the {e current} fault state (who is down,
    the partition, the loss / corruption / duplication probabilities, the
    per-entity stall factors) plus a seeded PRNG, and exposes it as the
    per-copy hooks every medium understands:

    - {!on_pdu} for CO PDUs on the simulator; corruption there
      round-trips the PDU through {!Repro_pdu.Codec} with one random bit
      flipped, so a corrupted copy survives only if the codec (checksum)
      fails to catch it;
    - {!on_datagram}, the same verdict over raw bytes for the UDP
      transport ({!Repro_transport.Udp_cluster.set_fault_hook}); there a
      corrupted datagram is passed through mangled and the receiver's
      decode path rejects it;
    - {!on_copy}, the same verdict for any payload it cannot re-encode
      (membership control frames, baseline protocols' messages);
    - {!service_delay}, which models slow-entity stalls.

    {!install} puts a copy hook and {!service_delay} on a simulated
    {!Repro_sim.Network.t}; {!schedule} replays a plan's events on the
    engine, each {!apply}ed to the medium and then handed to the caller's
    host hook. [Crash]/[Restart] only flip the injector's down flag (the
    medium stops carrying copies to or from a dead NIC) and [Join]/[Leave]
    leave the medium alone — what they mean for the entities is the
    host's call: {!Chaos.run} crashes and restarts cluster entities,
    {!Chaos.run_churn} drives group membership, and scenario runs model
    churn as network silence. *)

type t

type stats = {
  crash_drops : int;  (** Copies dropped to/from a down entity. *)
  partition_drops : int;
  loss_drops : int;
  corrupt_dropped : int;  (** Bit-flipped copies the codec rejected. *)
  corrupt_passed : int;
      (** Bit-flipped copies that still decoded (checksum miss) and were
          delivered mangled. Expected 0 with the checksummed codec. *)
  duplicated : int;  (** Copies delivered twice. *)
}

val create :
  ?wire:Repro_core.Config.wire_version -> n:int -> seed:int -> unit -> t
(** [wire] (default {!Repro_core.Config.default}'s) selects the codec the
    corruption path frames with; the verdict is wire-independent because
    both codecs' checksums reject every single-bit flip. The verdict
    draws come from [Repro_util.Prng.create ~seed:(seed lxor 0xfa017)]. *)

val n : t -> int

val apply : t -> Plan.action -> unit
(** Update the fault state. [Stall]/[Unstall] take effect via
    {!service_delay}; everything else via the copy hooks. *)

val is_down : t -> int -> bool
val stats : t -> stats
val faults_active : t -> bool
(** Any fault currently armed (entity down, partition installed, nonzero
    probability, or stall in place)? False once a plan has fully healed. *)

val on_pdu : t -> dst:int -> src:int -> Repro_pdu.Pdu.t -> Repro_pdu.Pdu.t list
val on_datagram : t -> dst:int -> src:int -> bytes -> bytes list

val on_copy : t -> dst:int -> src:int -> 'a -> 'a list
(** [on_copy] is the same verdict for an opaque payload the injector can't
    re-encode: 0, 1 or 2 surviving copies. A corruption draw drops the
    copy — modeling the receiver's shape check rejecting a mangled frame —
    and is counted in [corrupt_dropped].

    All three copy hooks pass a copy whose [src] or [dst] is not one of
    the [n] entities (an external sender, [src = -1]) through untouched,
    without drawing from the PRNG. *)

val service_delay : t -> dst:int -> Repro_sim.Simtime.t -> Repro_sim.Simtime.t

val install :
  t ->
  'a Repro_sim.Network.t ->
  (t -> dst:int -> src:int -> 'a -> 'a list) ->
  unit
(** [install t net hook] sets [net]'s fault hook to [hook t] (one of the
    copy hooks above, or a dispatch over them) and its service hook to
    {!service_delay}, replacing any previous ones. *)

val schedule :
  t -> Repro_sim.Engine.t -> Plan.t -> host:(Plan.action -> unit) -> unit
(** [schedule t engine plan ~host] schedules every plan event on [engine]:
    at its instant the action is {!apply}ed to the medium first, then
    passed to [host]. Medium first is what lets a restarted entity's
    recovery traffic through. *)

val pp_stats : Format.formatter -> stats -> unit
