module Lifecycle = Repro_obs.Lifecycle
module Registry = Repro_obs.Registry
module Trace_ctx = Repro_obs.Trace_ctx
module Pdu = Repro_pdu.Pdu

type t = {
  registry : Registry.t option;
  lifecycle : Lifecycle.t option;
  tracer : Trace_ctx.t option;
}

let create ?registry ~seed (config : Config.t) =
  {
    registry;
    lifecycle = Option.map (fun reg -> Lifecycle.create ~registry:reg ()) registry;
    tracer =
      (if config.Config.tracing then
         Some (Trace_ctx.create ~salt:(Trace_ctx.salt_of_seed ~seed) ())
       else None);
  }

let salt t = Option.map Trace_ctx.salt t.tracer

let new_epoch t =
  Option.iter Lifecycle.new_epoch t.lifecycle;
  Option.iter Trace_ctx.new_epoch t.tracer

(* One probe serves both recorders. Either alone installs it; with neither
   the entity stays on the free no-probe path. *)
let attach t ~id ~now entity =
  if Option.is_some t.lifecycle || Option.is_some t.tracer then begin
    let per_entity make = Option.map (fun reg -> make reg) t.registry in
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
    let lc f = match t.lifecycle with Some l -> f l | None -> () in
    let tr f = match t.tracer with Some r -> f r | None -> () in
    let is_data d = not (Pdu.is_confirmation d) in
    Entity.set_probe entity
      {
        Entity.on_submit =
          (fun () -> lc (fun l -> Lifecycle.submit l ~src:id ~now:(now ())));
        on_transmit =
          (fun d ->
            lc (fun l ->
                Lifecycle.first_send l ~src:d.src ~seq:d.seq ~data:(is_data d)
                  ~now:(now ()));
            if is_data d then
              tr (fun r -> Trace_ctx.on_send r ~src:d.src ~seq:d.seq ~now:(now ())));
        on_receive =
          (fun d ->
            (match received with Some c -> Registry.inc c | None -> ());
            if is_data d then
              tr (fun r ->
                  Trace_ctx.on_receive r ~entity:id ~src:d.src ~seq:d.seq
                    ~now:(now ())));
        on_park =
          (fun d ->
            if is_data d then
              tr (fun r -> Trace_ctx.on_park r ~entity:id ~src:d.src ~seq:d.seq));
        on_accept =
          (fun d ->
            lc (fun l ->
                Lifecycle.accept l ~entity:id ~src:d.src ~seq:d.seq
                  ~data:(is_data d) ~now:(now ()));
            if is_data d then
              tr (fun r ->
                  Trace_ctx.on_accept r ~entity:id ~src:d.src ~seq:d.seq
                    ~now:(now ())));
        on_preack =
          (fun d ->
            lc (fun l ->
                Lifecycle.preack l ~entity:id ~src:d.src ~seq:d.seq
                  ~data:(is_data d) ~now:(now ()));
            if is_data d then
              tr (fun r ->
                  Trace_ctx.on_preack r ~entity:id ~src:d.src ~seq:d.seq
                    ~now:(now ())));
        on_ack =
          (fun d ->
            lc (fun l ->
                Lifecycle.ack l ~entity:id ~src:d.src ~seq:d.seq
                  ~data:(is_data d) ~now:(now ())));
        on_deliver =
          (fun d ->
            lc (fun l ->
                Lifecycle.deliver l ~entity:id ~src:d.src ~seq:d.seq
                  ~now:(now ()));
            tr (fun r ->
                Trace_ctx.on_deliver r ~entity:id ~src:d.src ~seq:d.seq
                  ~now:(now ())));
        on_deliver_batch =
          (fun size -> lc (fun l -> Lifecycle.deliver_batch l ~size));
        on_ret_backoff =
          (fun delay ->
            match backoff_h with
            | Some h -> Registry.observe h delay
            | None -> ());
      }
  end
