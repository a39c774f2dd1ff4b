(** One PDU on the wire: the framing every simulated medium applies.

    Hosts that do not serialize for real (the simulated {!Cluster}, the
    membership runner, the fault injector's corruption model) still pass
    each transmission through its codec, so a codec bug shows up in every
    simulation and the [Config.wire] switch is observable to the
    differential suites. *)

val frame : ?salt:int64 -> Config.wire_version -> Repro_pdu.Pdu.t -> Bytes.t
(** [pdu] framed alone under [wire]. With [salt] (tracing on) a v2 DATA
    frame carries its trace id as a traced 0xB3 frame; RET, CTL and v1
    frames never do. *)

val roundtrip :
  ?salt:int64 -> Config.wire_version -> Repro_pdu.Pdu.t -> Repro_pdu.Pdu.t
(** [frame] then {!Repro_pdu.Codec.decode_any}: the identity on every PDU
    an entity can legally produce.
    @raise Invalid_argument if the frame does not decode to exactly one
    PDU. *)
