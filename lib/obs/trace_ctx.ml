type span = {
  entity : int;
  incarnation : int;
  src : int;
  seq : int;
  trace_id : int64;
  t_send : int;
  t_recv : int;
  parked : bool;
  t_accept : int;
  t_preack : int;
  t_deliver : int;
}

(* splitmix64 finalizer: full-avalanche 64-bit mix, the same construction
   Prng is built on, so ids inherit its distribution quality. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let id ~salt ~src ~seq =
  (* (src, seq) packed injectively: seq is bounded far below 2^48. *)
  let key = Int64.of_int ((src lsl 48) lxor seq) in
  mix64 (Int64.add salt (mix64 key))

let salt_of_seed ~seed =
  let g = Repro_util.Prng.split (Repro_util.Prng.create ~seed) in
  Repro_util.Prng.bits64 g

(* A data PDU's progress at one entity. -1 marks a stamp not yet taken.
   The ladder span (accept → ack) is open exactly while the partial is in
   the table with its accept stamp taken: acknowledgment removes it. *)
type partial = {
  mutable p_recv : int;
  mutable p_parked : bool;
  mutable p_accept : int;
  mutable p_preack : int;
}

type t = {
  salt : int64;
  reg : Registry.t;
  send_at : (int * int, int) Hashtbl.t; (* (src, seq) -> first send *)
  submit_q : (int, int Queue.t) Hashtbl.t; (* src -> pending submit times *)
  partials : (int * int * int, partial) Hashtbl.t; (* (entity, src, seq) *)
  incarnation : (int, int) Hashtbl.t; (* entity -> current incarnation *)
  (* Ladder spans cut short by an entity crash. Post-restart ladder stamps
     for these PDUs are expected (the checkpointed entity resumes
     mid-ladder) and must be neither errors nor stitched onto the dead
     span. *)
  abandoned_keys : (int * int * int, unit) Hashtbl.t;
  mutable rev_spans : span list;
  mutable abandoned : int;
  mutable incomplete : int;
  mutable opened : int;
  mutable closed : int;
  mutable spans_abandoned : int;
  mutable close_errs : int;
  mutable order_errs : int;
  h_queue : Registry.histo;
  h_accept : Registry.histo;
  h_preack : Registry.histo;
  h_ack : Registry.histo;
  h_deliver : Registry.histo;
  h_batch : Registry.histo;
}
[@@coaudit.allow
  "per-run span recorder: owned by one cluster, stamped from its \
   single-threaded probe callbacks"]

let stage_help =
  "Latency from a sequenced PDU's first broadcast to each receipt-ladder \
   level, across all receiving entities"

let create ~salt ?registry () =
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let stage s =
    Registry.histogram reg ~help:stage_help ~scale:1e-6
      ~name:"co_ladder_stage_seconds"
      [ ("stage", s) ]
  in
  (* Registration order is exposition order. *)
  let h_batch =
    Registry.histogram reg
      ~help:
        "Acknowledgments drained per ACK scan (a count, not seconds): the \
         coalescing the batched minPAL drain achieves"
      ~name:"co_deliver_batch_size" []
  in
  let h_deliver = stage "deliver" in
  let h_ack = stage "ack" in
  let h_preack = stage "preack" in
  let h_accept = stage "accept" in
  let h_queue =
    Registry.histogram reg
      ~help:"Flow-condition queueing delay: application submit to first send"
      ~scale:1e-6 ~name:"co_submit_queue_seconds" []
  in
  {
    salt;
    reg;
    send_at = Hashtbl.create 1024;
    submit_q = Hashtbl.create 16;
    partials = Hashtbl.create 1024;
    incarnation = Hashtbl.create 8;
    abandoned_keys = Hashtbl.create 16;
    rev_spans = [];
    abandoned = 0;
    incomplete = 0;
    opened = 0;
    closed = 0;
    spans_abandoned = 0;
    close_errs = 0;
    order_errs = 0;
    h_queue;
    h_accept;
    h_preack;
    h_ack;
    h_deliver;
    h_batch;
  }

let salt t = t.salt

let incarnation_of t entity =
  Option.value ~default:0 (Hashtbl.find_opt t.incarnation entity)

let on_submit t ~src ~now =
  match Hashtbl.find_opt t.submit_q src with
  | Some q -> Queue.push now q
  | None -> Hashtbl.add t.submit_q src (Queue.of_seq (Seq.return now))

let on_send t ~src ~seq ~data ~now =
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

let partial_of t key =
  match Hashtbl.find_opt t.partials key with
  | Some p -> p
  | None ->
    let p = { p_recv = -1; p_parked = false; p_accept = -1; p_preack = -1 } in
    Hashtbl.add t.partials key p;
    p

let span_open t key =
  match Hashtbl.find_opt t.partials key with
  | Some p -> p.p_accept >= 0
  | None -> false

(* Stamps that find no open ladder span are errors, unless a crash
   abandoned the span and the restarted incarnation is completing the
   ladder from its checkpoint. *)
let check_open t key =
  if (not (span_open t key)) && not (Hashtbl.mem t.abandoned_keys key) then
    t.order_errs <- t.order_errs + 1

(* Partials and ladder spans are kept for data PDUs only: empty
   confirmations also climb the ladder, but the tail of them at the end of
   a run is never acknowledged (nothing depends on it), so including them
   would make every complete run report orphan spans. Stage latencies are
   still recorded for all sequenced PDUs. *)

let on_receive t ~entity ~src ~seq ~data ~now =
  if data then begin
    let p = partial_of t (entity, src, seq) in
    if p.p_recv < 0 then p.p_recv <- now
  end

let on_park t ~entity ~src ~seq ~data =
  if data then (partial_of t (entity, src, seq)).p_parked <- true

let on_accept t ~entity ~src ~seq ~data ~now =
  if data then begin
    let p = partial_of t (entity, src, seq) in
    if p.p_accept >= 0 then t.order_errs <- t.order_errs + 1
    else begin
      p.p_accept <- now;
      t.opened <- t.opened + 1
    end
  end;
  stage_latency t t.h_accept ~src ~seq ~now

let on_preack t ~entity ~src ~seq ~data ~now =
  if data then begin
    let key = (entity, src, seq) in
    check_open t key;
    let p = partial_of t key in
    if p.p_preack < 0 then p.p_preack <- now
  end;
  stage_latency t t.h_preack ~src ~seq ~now

let on_deliver t ~entity ~src ~seq ~now =
  let key = (entity, src, seq) in
  check_open t key;
  stage_latency t t.h_deliver ~src ~seq ~now;
  (* The partial stays until the acknowledgment that follows closes it. *)
  let send = Hashtbl.find_opt t.send_at (src, seq) in
  match (Hashtbl.find_opt t.partials key, send) with
  | Some p, Some t_send
    when p.p_recv >= 0 && p.p_accept >= 0 && p.p_preack >= 0 ->
    let span =
      {
        entity;
        incarnation = incarnation_of t entity;
        src;
        seq;
        trace_id = id ~salt:t.salt ~src ~seq;
        t_send;
        t_recv = p.p_recv;
        parked = p.p_parked;
        t_accept = p.p_accept;
        t_preack = p.p_preack;
        t_deliver = now;
      }
    in
    t.rev_spans <- span :: t.rev_spans
  | _ -> t.incomplete <- t.incomplete + 1

let on_ack t ~entity ~src ~seq ~data ~now =
  if data then begin
    let key = (entity, src, seq) in
    if span_open t key then t.closed <- t.closed + 1
    else if not (Hashtbl.mem t.abandoned_keys key) then
      t.close_errs <- t.close_errs + 1;
    Hashtbl.remove t.partials key
  end;
  stage_latency t t.h_ack ~src ~seq ~now

let on_deliver_batch t ~size = if size > 0 then Registry.observe t.h_batch size

let abandon_entity t ~entity =
  let incarnation = incarnation_of t entity in
  let stale =
    Hashtbl.fold
      (fun ((e, _, _) as key) p acc -> if e = entity then (key, p) :: acc else acc)
      t.partials []
  in
  let cut_short = List.filter (fun (_, p) -> p.p_accept >= 0) stale in
  if cut_short <> [] then begin
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
    List.iter (fun (key, _) -> Hashtbl.replace t.abandoned_keys key ()) cut_short;
    t.spans_abandoned <- t.spans_abandoned + List.length cut_short;
    Registry.inc ~by:(List.length cut_short) c
  end;
  List.iter (fun (key, _) -> Hashtbl.remove t.partials key) stale;
  t.abandoned <- t.abandoned + List.length stale;
  Hashtbl.replace t.incarnation entity (incarnation + 1)

let new_epoch t =
  Hashtbl.reset t.send_at;
  Hashtbl.reset t.partials

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

let spans t = List.rev t.rev_spans
let abandoned t = t.abandoned
let incomplete t = t.incomplete
let spans_opened t = t.opened
let spans_closed t = t.closed
let spans_abandoned t = t.spans_abandoned
let open_spans t = t.opened - t.closed - t.spans_abandoned
let close_errors t = t.close_errs
let order_errors t = t.order_errs
