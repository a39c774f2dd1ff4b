(* The CO protocol over real UDP sockets (lib/transport). These tests run in
   real time; timeouts are generous enough for loaded CI machines but the
   happy paths complete in tens of milliseconds. *)

module Udp = Repro_transport.Udp_cluster
module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Pdu = Repro_pdu.Pdu
module Simtime = Repro_sim.Simtime
module Injector = Repro_fault.Injector
module Plan = Repro_fault.Plan

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let fast_config =
  {
    Config.default with
    Config.defer = Config.Deferred { timeout = Simtime.of_ms 5 };
    ret_retry_timeout = Simtime.of_ms 15;
  }

let payloads t ~entity =
  List.map (fun (d : Pdu.data) -> d.payload) (Udp.deliveries t ~entity)

let test_clean_broadcast () =
  let t = Udp.create ~config:fast_config ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "hello";
  Udp.submit t ~src:1 "world";
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:5.);
  for e = 0 to 2 do
    check int_t (Printf.sprintf "entity %d delivered 2" e) 2
      (List.length (Udp.deliveries t ~entity:e))
  done;
  check bool_t "datagrams flowed" true (Udp.datagrams_sent t > 0);
  check int_t "no decode errors" 0 (Udp.decode_errors t)

let test_causal_order_over_udp () =
  let t = Udp.create ~config:fast_config ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "question";
  (* Let the question propagate before the answer is issued: the reply is
     then causally dependent and must never be delivered first. *)
  Udp.run_for t ~seconds:0.05;
  Udp.submit t ~src:1 "answer";
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:5.);
  for e = 0 to 2 do
    check
      (Alcotest.list Alcotest.string)
      (Printf.sprintf "order at %d" e)
      [ "question"; "answer" ] (payloads t ~entity:e)
  done

let test_recovery_under_loss () =
  let t = Udp.create ~config:fast_config ~seed:7 ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let inj = Injector.create ~n:3 ~seed:7 () in
  Udp.set_fault_hook t (Injector.on_datagram inj);
  Injector.apply inj (Plan.Loss 0.2);
  for i = 1 to 10 do
    Udp.submit t ~src:(i mod 3) (Printf.sprintf "m%d" i);
    Udp.run_for t ~seconds:0.004
  done;
  check bool_t "quiescent despite loss" true
    (Udp.run_until_quiescent t ~max_seconds:20.);
  for e = 0 to 2 do
    check int_t
      (Printf.sprintf "entity %d complete" e)
      10
      (List.length (Udp.deliveries t ~entity:e))
  done;
  check bool_t "losses actually happened" true
    ((Injector.stats inj).loss_drops > 0)

let test_larger_cluster () =
  let t = Udp.create ~config:fast_config ~n:5 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  for src = 0 to 4 do
    Udp.submit t ~src (Printf.sprintf "from-%d" src)
  done;
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:10.);
  for e = 0 to 4 do
    check int_t "all five" 5 (List.length (Udp.deliveries t ~entity:e))
  done

let test_validation () =
  Alcotest.check_raises "n" (Invalid_argument
    "Udp_cluster.create: n must be >= 2") (fun () ->
      ignore (Udp.create ~n:1 ()));
  Alcotest.check_raises "v1 egress"
    (Invalid_argument "Udp_cluster.create: egress is v2 only (config.wire = V1)")
    (fun () ->
      ignore
        (Udp.create ~config:{ Config.default with Config.wire = Config.V1 }
           ~n:2 ()))

let test_garbage_datagrams_ignored () =
  (* Hostile/foreign datagrams must be counted and discarded, never crash
     the event loop or corrupt protocol state. *)
  let t = Udp.create ~config:fast_config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let scratch = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close scratch) @@ fun () ->
  let target =
    Unix.ADDR_INET (Unix.inet_addr_loopback, Udp.port t 1)
  in
  let inject s =
    let b = Bytes.of_string s in
    ignore (Unix.sendto scratch b 0 (Bytes.length b) [] target)
  in
  inject "not a pdu at all";
  inject "\x09\x00\x00\x00\x00";
  (* truncated DT header *)
  inject "\x00\x00\x00";
  Udp.submit t ~src:0 "real";
  check bool_t "quiescent despite junk" true
    (Udp.run_until_quiescent t ~max_seconds:5.);
  check int_t "junk counted" 3 (Udp.decode_errors t);
  check int_t "real message still delivered" 1
    (List.length (Udp.deliveries t ~entity:1))

(* A datagram from outside the cluster reaches the hook with [src = -1];
   the injector must pass it through to the decode path (which rejects
   it) rather than index its fault state with it. *)
let test_foreign_datagram_under_injector () =
  let t = Udp.create ~config:fast_config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.set_fault_hook t (Injector.on_datagram (Injector.create ~n:2 ~seed:1 ()));
  let stranger = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close stranger) @@ fun () ->
  let junk = Bytes.of_string "\x09\x00\x00\x00\x00" in
  ignore
    (Unix.sendto stranger junk 0 (Bytes.length junk) []
       (Unix.ADDR_INET (Unix.inet_addr_loopback, Udp.port t 0)));
  check bool_t "step handles the datagram" true (Udp.step t ~timeout_s:1.);
  check int_t "rejected by decode" 1 (Udp.decode_errors t);
  Udp.submit t ~src:1 "after";
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:5.);
  for e = 0 to 1 do
    check int_t (Printf.sprintf "entity %d delivered" e) 1
      (List.length (Udp.deliveries t ~entity:e))
  done

(* The chaos injector speaks the same hook contract as the simulator: wire
   it into the UDP transport and corrupt datagrams in flight. The codec
   checksum must reject every mangled datagram (counted as decode errors)
   and the RET machinery must still converge once the fault heals. *)
let test_fault_injected_corruption () =
  let t = Udp.create ~config:fast_config ~seed:11 ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let inj = Injector.create ~n:3 ~seed:11 () in
  Udp.set_fault_hook t (Injector.on_datagram inj);
  Injector.apply inj (Plan.Corrupt 0.4);
  for k = 1 to 3 do
    Udp.submit t ~src:0 (Printf.sprintf "a%d" k);
    Udp.submit t ~src:1 (Printf.sprintf "b%d" k)
  done;
  Udp.run_for t ~seconds:0.3;
  Injector.apply inj (Plan.Corrupt 0.);
  check bool_t "quiescent after heal" true
    (Udp.run_until_quiescent t ~max_seconds:20.);
  for e = 0 to 2 do
    check int_t (Printf.sprintf "entity %d delivered all" e) 6
      (List.length (Udp.deliveries t ~entity:e))
  done;
  let s = Injector.stats inj in
  check bool_t "corruption injected" true (s.corrupt_dropped > 0);
  check bool_t "checksum rejected them" true (Udp.decode_errors t > 0)

(* A full membership cycle over real sockets: broadcast in epoch 0, admit
   a joiner (bootstrapped from the sponsor's checkpoint), broadcast across
   the wider view — the joiner included as a source — then remove a
   member and converge again in the shrunken view. *)
let test_view_change_join_then_remove () =
  let t = Udp.create ~config:fast_config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "e0-a";
  Udp.submit t ~src:1 "e0-b";
  check bool_t "epoch 0 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:5.);
  check bool_t "reconciled before cut" true (Udp.reconciled t);
  (match Udp.commit_view_change t Udp.Add_node with
  | Ok () -> ()
  | Error e -> Alcotest.failf "join refused: %s" e);
  check int_t "epoch advanced" 1 (Udp.epoch t);
  check int_t "view grew" 3 (Udp.size t);
  Udp.submit t ~src:2 "e1-from-joiner";
  Udp.run_for t ~seconds:0.05;
  Udp.submit t ~src:0 "e1-reply";
  check bool_t "epoch 1 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:10.);
  (* The joiner must hold exactly the new-epoch traffic, in causal order;
     survivors appended it to their epoch-0 history. *)
  check
    (Alcotest.list Alcotest.string)
    "joiner delivered epoch 1"
    [ "e1-from-joiner"; "e1-reply" ]
    (payloads t ~entity:2);
  check
    (Alcotest.list Alcotest.string)
    "survivor history spans epochs"
    [ "e0-a"; "e0-b"; "e1-from-joiner"; "e1-reply" ]
    (payloads t ~entity:0);
  (match Udp.commit_view_change t (Udp.Remove_node 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "removal refused: %s" e);
  check int_t "second epoch" 2 (Udp.epoch t);
  check int_t "view shrank" 2 (Udp.size t);
  (* Old rank 2 (the joiner) is rank 1 now and must still converge. *)
  Udp.submit t ~src:1 "e2-c";
  check bool_t "epoch 2 quiescent" true
    (Udp.run_until_quiescent t ~max_seconds:10.);
  check
    (Alcotest.list Alcotest.string)
    "post-removal delivery"
    [ "e1-from-joiner"; "e1-reply"; "e2-c" ]
    (payloads t ~entity:1);
  check int_t "two view changes" 2 (Udp.view_changes t)

(* The same membership cycle with the span recorder on. The removal shifts
   the joiner down to rank 1, where it continues its own sequence numbers
   under the departed rank's [src] — keys the departed rank already used.
   The cut must make the recorder forget the closed epoch's send stamps,
   or each new-epoch span would start at an old-epoch send. *)
let test_view_change_instrumented () =
  let registry = Repro_obs.Registry.create () in
  let config = { fast_config with Config.tracing = true } in
  let t = Udp.create ~registry ~config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let tracer = Option.get (Udp.tracer t) in
  let lifecycle = Option.get (Udp.lifecycle t) in
  let quiesce what =
    check bool_t (what ^ " quiescent") true
      (Udp.run_until_quiescent t ~max_seconds:10.)
  in
  let commit change =
    match Udp.commit_view_change t change with
    | Ok () -> ()
    | Error e -> Alcotest.failf "view change refused: %s" e
  in
  (* Spans completed after a cut belong to the new epoch; the cut itself
     happened after every earlier span's delivery. *)
  let check_new_epoch_spans ~before what =
    let spans = Repro_obs.Trace_ctx.spans tracer in
    let old = List.filteri (fun i _ -> i < before) spans in
    let fresh = List.filteri (fun i _ -> i >= before) spans in
    let cut_at =
      List.fold_left
        (fun acc (s : Repro_obs.Trace_ctx.span) -> max acc s.t_deliver)
        0 old
    in
    check bool_t (what ^ ": new-epoch spans recorded") true (fresh <> []);
    List.iter
      (fun (s : Repro_obs.Trace_ctx.span) ->
        if s.t_send < cut_at || s.t_recv < s.t_send then
          Alcotest.failf
            "%s: span %d:%d at entity %d sent at %dus, before the cut (%dus)"
            what s.src s.seq s.entity s.t_send cut_at)
      fresh
  in
  Udp.submit t ~src:0 "e0-a";
  Udp.submit t ~src:1 "e0-b";
  quiesce "epoch 0";
  let before = List.length (Repro_obs.Trace_ctx.spans tracer) in
  commit Udp.Add_node;
  (* Rank 1 runs its sequence well ahead of the joiner's. *)
  for k = 1 to 4 do
    Udp.submit t ~src:1 (Printf.sprintf "e1-b%d" k)
  done;
  Udp.submit t ~src:2 "e1-from-joiner";
  quiesce "epoch 1";
  check_new_epoch_spans ~before "after the join";
  let before = List.length (Repro_obs.Trace_ctx.spans tracer) in
  commit (Udp.Remove_node 1);
  Udp.submit t ~src:1 "e2-c";
  Udp.submit t ~src:0 "e2-d";
  quiesce "epoch 2";
  check_new_epoch_spans ~before "after the removal";
  check int_t "close errors" 0 (Repro_obs.Trace_ctx.close_errors lifecycle);
  check int_t "order errors" 0 (Repro_obs.Trace_ctx.order_errors lifecycle);
  check int_t "open spans" 0 (Repro_obs.Trace_ctx.open_spans lifecycle)

let test_view_change_requires_reconciliation () =
  let t = Udp.create ~config:fast_config ~n:2 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  Udp.submit t ~src:0 "in-flight";
  (* The submit flushed datagrams but nothing has been received: entity 1
     still owes delivery work, so the barrier precondition fails. *)
  (match Udp.commit_view_change t Udp.Add_node with
  | Ok () -> Alcotest.fail "cut committed without the barrier"
  | Error _ -> ());
  check int_t "no epoch advance" 0 (Udp.epoch t);
  check bool_t "quiescent" true (Udp.run_until_quiescent t ~max_seconds:5.);
  (match Udp.commit_view_change t Udp.Add_node with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-barrier join refused: %s" e);
  Alcotest.check_raises "shrink below 2"
    (Invalid_argument
       "Udp_cluster.commit_view_change: view would shrink below 2")
    (fun () ->
      let t2 = Udp.create ~config:fast_config ~n:2 () in
      Fun.protect
        ~finally:(fun () -> Udp.close t2)
        (fun () -> ignore (Udp.commit_view_change t2 (Udp.Remove_node 0))))

let test_close_is_idempotent () =
  let t = Udp.create ~n:2 () in
  Udp.close t;
  Udp.close t

let () =
  Alcotest.run "transport"
    [
      ( "udp",
        [
          Alcotest.test_case "clean broadcast" `Quick test_clean_broadcast;
          Alcotest.test_case "causal order" `Quick test_causal_order_over_udp;
          Alcotest.test_case "recovery under loss" `Slow test_recovery_under_loss;
          Alcotest.test_case "larger cluster" `Quick test_larger_cluster;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "garbage datagrams" `Quick test_garbage_datagrams_ignored;
          Alcotest.test_case "foreign datagram under the injector" `Quick
            test_foreign_datagram_under_injector;
          Alcotest.test_case "injected corruption" `Slow
            test_fault_injected_corruption;
          Alcotest.test_case "view change join then remove" `Quick
            test_view_change_join_then_remove;
          Alcotest.test_case "view change instrumented" `Quick
            test_view_change_instrumented;
          Alcotest.test_case "view change needs the barrier" `Quick
            test_view_change_requires_reconciliation;
          Alcotest.test_case "close idempotent" `Quick test_close_is_idempotent;
        ] );
    ]
