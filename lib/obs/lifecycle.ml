type t = {
  reg : Registry.t;
  send_at : (int * int, int) Hashtbl.t; (* (src, seq) -> first-send time *)
  submit_q : (int, int Queue.t) Hashtbl.t; (* src -> pending submit times *)
  spans : (int * int * int, unit) Hashtbl.t; (* (entity, src, seq) open *)
  (* Spans cut short by an entity crash, keyed like [spans] and mapped to
     the incarnation they died under. Post-restart ladder stamps for these
     PDUs are expected (the checkpointed entity resumes mid-ladder) and
     must be neither errors nor stitched onto the dead span. *)
  abandoned_keys : (int * int * int, int) Hashtbl.t;
  mutable abandoned : int;
  mutable opened : int;
  mutable closed : int;
  mutable close_errs : int;
  mutable order_errs : int;
  h_queue : Registry.histo;
  h_accept : Registry.histo;
  h_preack : Registry.histo;
  h_ack : Registry.histo;
  h_deliver : Registry.histo;
  h_batch : Registry.histo;
}

let stage_help =
  "Latency from a sequenced PDU's first broadcast to each receipt-ladder \
   level, across all receiving entities"

let create ?registry () =
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let stage s =
    Registry.histogram reg ~help:stage_help ~scale:1e-6
      ~name:"co_ladder_stage_seconds"
      [ ("stage", s) ]
  in
  {
    reg;
    send_at = Hashtbl.create 1024;
    submit_q = Hashtbl.create 16;
    spans = Hashtbl.create 1024;
    abandoned_keys = Hashtbl.create 16;
    abandoned = 0;
    opened = 0;
    closed = 0;
    close_errs = 0;
    order_errs = 0;
    h_queue =
      Registry.histogram reg
        ~help:"Flow-condition queueing delay: application submit to first send"
        ~scale:1e-6 ~name:"co_submit_queue_seconds" [];
    h_accept = stage "accept";
    h_preack = stage "preack";
    h_ack = stage "ack";
    h_deliver = stage "deliver";
    h_batch =
      Registry.histogram reg
        ~help:
          "Acknowledgments drained per ACK scan (a count, not seconds): the \
           coalescing the batched minPAL drain achieves"
        ~name:"co_deliver_batch_size" [];
  }

let registry t = t.reg

let submit t ~src ~now =
  let q =
    match Hashtbl.find_opt t.submit_q src with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.submit_q src q;
      q
  in
  Queue.push now q

let first_send t ~src ~seq ~data ~now =
  let key = (src, seq) in
  if not (Hashtbl.mem t.send_at key) then begin
    Hashtbl.add t.send_at key now;
    if data then begin
      (* Sequenced data PDUs leave the source in submission order (the
         dt_queue is a FIFO and fresh submissions only bypass it when it is
         empty), so the oldest pending submit stamp is this PDU's. *)
      match Hashtbl.find_opt t.submit_q src with
      | Some q when not (Queue.is_empty q) ->
        let t0 = Queue.pop q in
        if now - t0 >= 0 then Registry.observe t.h_queue (now - t0)
        else t.order_errs <- t.order_errs + 1
      | Some _ | None -> ()
    end
  end

let stage_latency t h ~src ~seq ~now =
  match Hashtbl.find_opt t.send_at (src, seq) with
  | None -> () (* never saw the send: foreign or pre-instrumentation PDU *)
  | Some t0 ->
    if now - t0 >= 0 then Registry.observe h (now - t0)
    else t.order_errs <- t.order_errs + 1

(* Spans are tracked for data PDUs only: empty confirmations also climb the
   ladder, but the tail of them at the end of a run is never acknowledged
   (nothing depends on it), so including them would make every complete run
   report orphan spans. Stage latencies are still recorded for all
   sequenced PDUs. *)

let accept t ~entity ~src ~seq ~data ~now =
  if data then begin
    let skey = (entity, src, seq) in
    if Hashtbl.mem t.spans skey then t.order_errs <- t.order_errs + 1
    else begin
      Hashtbl.add t.spans skey ();
      t.opened <- t.opened + 1
    end
  end;
  stage_latency t t.h_accept ~src ~seq ~now

let preack t ~entity ~src ~seq ~data ~now =
  let skey = (entity, src, seq) in
  if
    data
    && (not (Hashtbl.mem t.spans skey))
    && not (Hashtbl.mem t.abandoned_keys skey)
  then t.order_errs <- t.order_errs + 1;
  stage_latency t t.h_preack ~src ~seq ~now

let ack t ~entity ~src ~seq ~data ~now =
  if data then begin
    let skey = (entity, src, seq) in
    if Hashtbl.mem t.spans skey then begin
      Hashtbl.remove t.spans skey;
      t.closed <- t.closed + 1
    end
    else if not (Hashtbl.mem t.abandoned_keys skey) then
      t.close_errs <- t.close_errs + 1
  end;
  stage_latency t t.h_ack ~src ~seq ~now

let deliver_batch t ~size =
  if size > 0 then Registry.observe t.h_batch size

let deliver t ~entity ~src ~seq ~now =
  (* Delivery happens inside acknowledgment, so the span must still be
     open when the probe fires — unless a crash abandoned it and the
     restarted incarnation is completing the ladder from its checkpoint. *)
  let skey = (entity, src, seq) in
  if
    (not (Hashtbl.mem t.spans skey))
    && not (Hashtbl.mem t.abandoned_keys skey)
  then t.order_errs <- t.order_errs + 1;
  stage_latency t t.h_deliver ~src ~seq ~now

let abandon_entity t ~entity ~incarnation =
  let stale =
    Hashtbl.fold
      (fun ((e, _, _) as key) () acc -> if e = entity then key :: acc else acc)
      t.spans []
  in
  (match stale with
  | [] -> ()
  | _ :: _ ->
    let c =
      Registry.counter t.reg
        ~help:
          "Lifecycle spans cut short by an entity crash, tagged with the \
           incarnation that died; abandoned spans are closed, never \
           stitched onto the restarted incarnation"
        ~name:"co_spans_abandoned_total"
        [
          ("entity", string_of_int entity);
          ("incarnation", string_of_int incarnation);
        ]
    in
    List.iter
      (fun key ->
        Hashtbl.remove t.spans key;
        Hashtbl.replace t.abandoned_keys key incarnation;
        t.abandoned <- t.abandoned + 1;
        Registry.inc c)
      stale)

let new_epoch t = Hashtbl.reset t.send_at

let spans_abandoned t = t.abandoned

type ladder = {
  queue : Histogram.snapshot;
  accept : Histogram.snapshot;
  preack : Histogram.snapshot;
  ack : Histogram.snapshot;
  deliver : Histogram.snapshot;
}

let ladder t =
  {
    queue = Registry.histo_snapshot t.h_queue;
    accept = Registry.histo_snapshot t.h_accept;
    preack = Registry.histo_snapshot t.h_preack;
    ack = Registry.histo_snapshot t.h_ack;
    deliver = Registry.histo_snapshot t.h_deliver;
  }

let spans_opened t = t.opened
let spans_closed t = t.closed
let open_spans t = Hashtbl.length t.spans
let close_errors t = t.close_errs
let order_errors t = t.order_errs
