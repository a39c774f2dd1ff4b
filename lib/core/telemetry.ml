module Registry = Repro_obs.Registry
module Trace_ctx = Repro_obs.Trace_ctx
module Pdu = Repro_pdu.Pdu

type t = {
  registry : Registry.t option;
  tracing : bool;
  recorder : Trace_ctx.t option;
}

let create ?registry ~seed (config : Config.t) =
  let tracing = config.Config.tracing in
  {
    registry;
    tracing;
    recorder =
      (if Option.is_some registry || tracing then
         Some (Trace_ctx.create ~salt:(Trace_ctx.salt_of_seed ~seed) ?registry ())
       else None);
  }

let registry t = t.registry
let lifecycle t = if Option.is_some t.registry then t.recorder else None
let tracer t = if t.tracing then t.recorder else None
let salt t = Option.map Trace_ctx.salt (tracer t)

let abandon_entity t ~entity =
  Option.iter (Trace_ctx.abandon_entity ~entity) t.recorder

let new_epoch t = Option.iter Trace_ctx.new_epoch t.recorder

(* Without a recorder the entity stays on the free no-probe path. *)
let attach t ~id ~now entity =
  match t.recorder with
  | None -> ()
  | Some r ->
    let per_entity make = Option.map make t.registry in
    let received =
      per_entity (fun reg ->
          Registry.counter reg
            ~help:"Data PDUs received, including duplicates and out-of-order"
            ~name:"co_pdus_received_total"
            [ ("entity", string_of_int id) ])
    in
    let backoff_h =
      per_entity (fun reg ->
          Registry.histogram reg
            ~help:"RET retry delay after each backoff step, microseconds"
            ~name:"co_ret_backoff_us"
            [ ("entity", string_of_int id) ])
    in
    let data d = not (Pdu.is_confirmation d) in
    let stamp f (d : Pdu.data) =
      f r ~entity:id ~src:d.src ~seq:d.seq ~data:(data d) ~now:(now ())
    in
    Entity.set_probe entity
      {
        Entity.on_submit =
          (fun () -> Trace_ctx.on_submit r ~src:id ~now:(now ()));
        on_transmit =
          (fun d ->
            Trace_ctx.on_send r ~src:d.src ~seq:d.seq ~data:(data d) ~now:(now ()));
        on_receive =
          (fun d ->
            Option.iter Registry.inc received;
            stamp Trace_ctx.on_receive d);
        on_park =
          (fun d ->
            Trace_ctx.on_park r ~entity:id ~src:d.src ~seq:d.seq ~data:(data d));
        on_accept = stamp Trace_ctx.on_accept;
        on_preack = stamp Trace_ctx.on_preack;
        on_ack = stamp Trace_ctx.on_ack;
        on_deliver =
          (fun d ->
            Trace_ctx.on_deliver r ~entity:id ~src:d.src ~seq:d.seq ~now:(now ()));
        on_deliver_batch = (fun size -> Trace_ctx.on_deliver_batch r ~size);
        on_ret_backoff =
          (fun delay ->
            Option.iter (fun h -> Registry.observe h delay) backoff_h);
      }
