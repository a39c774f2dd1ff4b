open Repro_pdu

let frame ?salt wire pdu =
  match (wire, salt, pdu) with
  | Config.V1, _, _ -> Codec.encode pdu
  | Config.V2, Some salt, Pdu.Data d ->
    Codec.encode_traced
      ~ids:[| Repro_obs.Trace_ctx.id ~salt ~src:d.src ~seq:d.seq |]
      pdu
  | Config.V2, _, _ -> Codec.encode_v2 pdu

let roundtrip ?salt wire pdu =
  match Codec.decode_any (frame ?salt wire pdu) with
  | Ok [ p ] -> p
  | Ok _ | Error _ -> invalid_arg "Wire.roundtrip: PDU did not survive its codec"
