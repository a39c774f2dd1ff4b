module Explorer = Repro_check.Explorer
module Invariants = Repro_check.Invariants
module State_hash = Repro_check.State_hash
module Trace_lint = Repro_check.Trace_lint
module Trace = Repro_sim.Trace
module Simtime = Repro_sim.Simtime
module Config = Repro_core.Config
module Cluster = Repro_core.Cluster
module Entity = Repro_core.Entity
module Pdu = Repro_pdu.Pdu
module Workload = Repro_harness.Workload
module Experiment = Repro_harness.Experiment
module Oracle = Repro_harness.Oracle

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let explore ?(broadcasts = 2) ?(drops = 0) ?(fires = 0)
    ?(defer = Config.Immediate) ?(por = true) ?fault ~n () =
  let base = Explorer.default_config ~n in
  Explorer.run
    {
      base with
      Explorer.script =
        List.init broadcasts (fun i -> (i mod n, Printf.sprintf "m%d" i));
      max_drops = drops;
      max_fires = fires;
      por;
      protocol = { base.Explorer.protocol with Config.defer; fault };
    }

let assert_clean name (o : Explorer.outcome) =
  (match o.Explorer.violation with
  | None -> ()
  | Some r ->
    Alcotest.failf "%s: unexpected %a" name Invariants.pp_violation
      r.Explorer.violation);
  check bool_t (name ^ " exhaustive") false o.Explorer.truncated;
  check bool_t (name ^ " nontrivial") true (o.Explorer.states > 10)

(* --- Explorer: exhaustive small-scope verification --- *)

let test_explore_n2_with_drop () =
  assert_clean "n=2 b=2 d=1" (explore ~n:2 ~broadcasts:2 ~drops:1 ())

let test_explore_n2_deep_script () =
  assert_clean "n=2 b=3 d=1 f=1 never"
    (explore ~n:2 ~broadcasts:3 ~drops:1 ~fires:1 ~defer:Config.Never ())

let test_explore_n3 () =
  assert_clean "n=3 b=2 never"
    (explore ~n:3 ~broadcasts:2 ~defer:Config.Never ())

let test_explore_heartbeat () =
  assert_clean "n=2 b=1 f=2" (explore ~n:2 ~broadcasts:1 ~fires:2 ())

let test_explore_por_agreement () =
  let with_por = explore ~n:2 ~broadcasts:1 ~fires:1 ~por:true () in
  let without = explore ~n:2 ~broadcasts:1 ~fires:1 ~por:false () in
  assert_clean "por" with_por;
  assert_clean "no-por" without;
  (* The reduction prunes interleavings, never reachable states. *)
  check int_t "same state count" without.Explorer.states
    with_por.Explorer.states;
  check bool_t "fewer transitions" true
    (with_por.Explorer.transitions <= without.Explorer.transitions)

(* Churn scopes use [Never] confirmation: a 3-member view under
   [Immediate] is explosive regardless of churn (the no-churn n=3
   baseline already truncates with one broadcast), and both churn kinds
   pass through a 3-member view on at least one side of the cut. *)
let explore_churn ?(drops = 0) ?fault ~n ~script ~churn ~post_script () =
  let base = Explorer.default_config ~n in
  Explorer.run
    {
      base with
      Explorer.script;
      churn = Some churn;
      post_script;
      max_drops = drops;
      protocol =
        { base.Explorer.protocol with Config.defer = Config.Never; fault };
    }

let test_explore_join () =
  (* One epoch-0 broadcast, then a member joins (bootstrapped from the
     sponsor's checkpoint) and the joiner itself broadcasts: the new-view
     PDU must deliver causally after the pre-cut traffic everywhere. *)
  let o =
    explore_churn ~n:2 ~script:[ (0, "a") ] ~churn:Explorer.Join
      ~post_script:[ (2, "c") ] ()
  in
  assert_clean "join n=2 b=1 post=1" o;
  (* Pinned: the epoch cut is shared with Group and the UDP transport;
     refactoring it must not change what the checker can see. *)
  check int_t "join states" 18437 o.Explorer.states;
  check int_t "join transitions" 72822 o.Explorer.transitions

let test_explore_leave () =
  (* Rank 1 leaves after two epoch-0 broadcasts; its stale loopback and
     confirmation copies stay in flight across the cut and must all bounce
     off the survivors' cid guard. *)
  let o =
    explore_churn ~n:3
      ~script:[ (0, "a"); (1, "b") ]
      ~churn:(Explorer.Leave 1) ~post_script:[ (0, "c") ] ()
  in
  assert_clean "leave n=3 b=2 post=1" o;
  check int_t "leave states" 23461 o.Explorer.states;
  check int_t "leave transitions" 76401 o.Explorer.transitions

let test_explore_catches_skip_epoch () =
  (* With the cid guard seeded away, a stale epoch-0 straggler delivered
     after the cut either trips the monitor's fence or crashes the entity
     outright (old-view ack vectors no longer match the resized clocks) —
     both are counterexamples, and the schedule must cross the cut. *)
  let o =
    explore_churn ~n:3
      ~script:[ (0, "a"); (1, "b") ]
      ~churn:(Explorer.Leave 1) ~post_script:[ (0, "c") ]
      ~fault:Config.Skip_epoch_guard ()
  in
  match o.Explorer.violation with
  | None -> Alcotest.fail "seeded skip-epoch not caught"
  | Some r ->
    check bool_t "caught by the epoch fence" true
      (List.mem r.Explorer.violation.Invariants.invariant
         [ "no-cross-epoch-delivery"; "runtime-exception" ]);
    check bool_t "schedule crosses the cut" true
      (List.exists
         (fun line -> String.length line >= 4 && String.sub line 0 4 = "cut:")
         r.Explorer.schedule)

let violation_invariant name (o : Explorer.outcome) =
  match o.Explorer.violation with
  | Some r ->
    check bool_t (name ^ " schedule nonempty") true
      (r.Explorer.schedule <> []);
    r.Explorer.violation.Invariants.invariant
  | None -> Alcotest.failf "%s: seeded bug not caught" name

(* Seeded-bug (mutation) coverage: each fault must be caught, and by the
   invariant that actually guards it. *)
let test_explore_catches_skip_cpi () =
  let o = explore ~n:2 ~broadcasts:2 ~fault:Config.Skip_cpi_order () in
  check Alcotest.string "caught by" "prl-linear-extension"
    (violation_invariant "skip-cpi" o)

let test_explore_catches_skip_minpal () =
  (* Needs the heartbeat: only B's sequenced empties ack m2 back to A, and
     only then does A (wrongly, given the seeded fault) deliver m2 before
     m1. ~140k states. *)
  let o =
    explore ~n:2 ~broadcasts:2 ~fires:2 ~fault:Config.Skip_minpal_gate ()
  in
  check Alcotest.string "caught by" "causal-delivery-order"
    (violation_invariant "skip-minpal" o)

let test_explore_rejects_deferred () =
  Alcotest.check_raises "deferred rejected"
    (Invalid_argument
       "Explorer.run: Deferred confirmation stalls under the frozen clock; \
        use Immediate or Never") (fun () ->
      let base = Explorer.default_config ~n:2 in
      ignore
        (Explorer.run
           {
             base with
             Explorer.protocol =
               {
                 base.Explorer.protocol with
                 Config.defer = Config.Deferred { timeout = Simtime.of_ms 1 };
               };
           }))

(* --- State hashing --- *)

let test_state_hash_deterministic () =
  check Alcotest.string "same parts, same digest"
    (State_hash.digest [ "a"; "bc" ])
    (State_hash.digest [ "a"; "bc" ])

let test_state_hash_part_boundaries () =
  (* Length-prefixing must keep ["ab";"c"] distinct from ["a";"bc"]. *)
  check bool_t "boundaries matter" true
    (State_hash.digest [ "ab"; "c" ] <> State_hash.digest [ "a"; "bc" ]);
  check bool_t "arity matters" true
    (State_hash.digest [ "ab" ] <> State_hash.digest [ "ab"; "" ])

(* --- Invariants.Monitor --- *)

let mk_data ~src ~seq ~ack ~payload =
  match Pdu.data ~cid:0 ~src ~seq ~ack ~buf:8 ~payload with
  | Pdu.Data d -> d
  | Pdu.Ret _ | Pdu.Ctl _ -> assert false

let test_monitor_duplicate_delivery () =
  let m = Invariants.Monitor.create ~n:2 in
  let d = mk_data ~src:0 ~seq:1 ~ack:[| 1; 1 |] ~payload:"x" in
  check int_t "first ok" 0
    (List.length (Invariants.Monitor.note_delivery m ~entity:1 d));
  let issues = Invariants.Monitor.note_delivery m ~entity:1 d in
  check bool_t "dup flagged" true
    (List.exists
       (fun v -> v.Invariants.invariant = "deliver-exactly-once")
       issues);
  check int_t "count unaffected" 1
    (Invariants.Monitor.delivered_count m ~entity:1)

let test_monitor_causal_inversion () =
  let m = Invariants.Monitor.create ~n:2 in
  (* q (src 1, seq 1) acknowledges p (src 0, seq 1): p directly precedes q
     by Theorem 4.1, so delivering q before p is an inversion. *)
  let p = mk_data ~src:0 ~seq:1 ~ack:[| 1; 1 |] ~payload:"p" in
  let q = mk_data ~src:1 ~seq:1 ~ack:[| 2; 1 |] ~payload:"q" in
  check int_t "q ok" 0
    (List.length (Invariants.Monitor.note_delivery m ~entity:0 q));
  let issues = Invariants.Monitor.note_delivery m ~entity:0 p in
  check bool_t "inversion flagged" true
    (List.exists
       (fun v -> v.Invariants.invariant = "causal-delivery-order")
       issues)

let test_monitor_epoch_fence () =
  let m = Invariants.Monitor.create ~n:2 in
  let actions =
    {
      Entity.broadcast = ignore;
      unicast = (fun ~dst:_ _ -> ());
      deliver = ignore;
      now = (fun () -> Simtime.of_ms 0);
      set_timer = (fun ~delay:_ _ -> ());
      available_buffer = (fun () -> 8);
    }
  in
  let config = { Config.default with Config.cid = 7 } in
  let e = Entity.create ~config ~id:0 ~n:2 ~actions in
  check int_t "baseline snapshot clean" 0
    (List.length (Invariants.Monitor.note_step m e));
  (* mk_data stamps cid 0; the snapshot above taught the monitor to expect
     cid 7, so the stale PDU must be flagged at accept time already (a
     closed epoch's PDU is accepted but never acknowledged). *)
  let stale = mk_data ~src:1 ~seq:1 ~ack:[| 1; 1 |] ~payload:"s" in
  let fenced issues =
    List.exists
      (fun v -> v.Invariants.invariant = "no-cross-epoch-delivery")
      issues
  in
  check bool_t "accept flagged" true
    (fenced (Invariants.Monitor.note_accept m ~entity:0 stale));
  check bool_t "delivery flagged" true
    (fenced (Invariants.Monitor.note_delivery m ~entity:0 stale));
  (* A committed view change resets the slot: no expectation (and no
     delivery history) until the next snapshot re-baselines. *)
  Invariants.Monitor.note_view_change m ~entity:0;
  check int_t "fence down after view change" 0
    (List.length (Invariants.Monitor.note_accept m ~entity:0 stale));
  check int_t "history reset" 0 (Invariants.Monitor.delivered_count m ~entity:0)

(* --- Runtime assertions (Paranoid end-to-end) --- *)

let test_paranoid_experiment_clean () =
  let base = Cluster.default_config ~n:3 in
  let config =
    {
      base with
      Cluster.loss_prob = 0.05;
      seed = 11;
      protocol =
        { base.Cluster.protocol with Config.check_level = Config.Paranoid };
    }
  in
  let workload =
    Workload.continuous ~n:3 ~per_entity:4 ~interval:(Simtime.of_ms 2) ()
  in
  (* A violation would raise Entity.Protocol_invariant out of [run]. *)
  let _, outcome = Experiment.run ~config ~workload () in
  check bool_t "oracle ok" true (Oracle.ok outcome.Experiment.oracle)

(* --- Trace linter --- *)

let tag ~src ~seq = Cluster.tag_of_key ~src ~seq

let sub ~t ~src ~seq =
  Trace.Submitted { time = Simtime.of_ms t; src; tag = tag ~src ~seq }

let dlv ~t ~entity ~src ~seq =
  Trace.Delivered { time = Simtime.of_ms t; entity; tag = tag ~src ~seq }

let test_lint_accepts_causal_order () =
  let events =
    [
      sub ~t:10 ~src:0 ~seq:1;
      dlv ~t:20 ~entity:1 ~src:0 ~seq:1;
      sub ~t:30 ~src:1 ~seq:1;
      dlv ~t:40 ~entity:2 ~src:0 ~seq:1;
      dlv ~t:50 ~entity:2 ~src:1 ~seq:1;
    ]
  in
  check int_t "clean" 0 (List.length (Trace_lint.lint events))

let test_lint_flags_causal_inversion () =
  (* (0,1) happened-before (1,1): it was delivered at entity 1 before
     entity 1 submitted. Entity 2 then delivers them inverted. *)
  let events =
    [
      sub ~t:10 ~src:0 ~seq:1;
      dlv ~t:20 ~entity:1 ~src:0 ~seq:1;
      sub ~t:30 ~src:1 ~seq:1;
      dlv ~t:40 ~entity:2 ~src:1 ~seq:1;
      dlv ~t:50 ~entity:2 ~src:0 ~seq:1;
    ]
  in
  match Trace_lint.lint events with
  | [] -> Alcotest.fail "inversion not flagged"
  | issue :: _ ->
    check int_t "at the closing delivery" 4 issue.Trace_lint.index;
    check int_t "at entity 2" 2 issue.Trace_lint.entity

let test_lint_flags_duplicate () =
  let events =
    [
      sub ~t:10 ~src:0 ~seq:1;
      dlv ~t:20 ~entity:1 ~src:0 ~seq:1;
      dlv ~t:30 ~entity:1 ~src:0 ~seq:1;
    ]
  in
  check bool_t "dup flagged" true (Trace_lint.lint events <> [])

let test_lint_fifo_inversion () =
  (* Same source out of sequence order is a causal inversion too. *)
  let events =
    [
      sub ~t:10 ~src:0 ~seq:1;
      sub ~t:11 ~src:0 ~seq:2;
      dlv ~t:20 ~entity:1 ~src:0 ~seq:2;
      dlv ~t:21 ~entity:1 ~src:0 ~seq:1;
    ]
  in
  check bool_t "fifo flagged" true (Trace_lint.lint events <> [])

let test_lint_completeness () =
  let events =
    [ sub ~t:10 ~src:0 ~seq:1; dlv ~t:20 ~entity:0 ~src:0 ~seq:1 ]
  in
  check int_t "incomplete without flag" 0
    (List.length (Trace_lint.lint ~n:2 events));
  check bool_t "incomplete with flag" true
    (Trace_lint.lint ~complete:true ~n:2 events <> [])

let test_lint_real_run_clean () =
  let config = Cluster.default_config ~n:3 in
  let workload =
    Workload.continuous ~n:3 ~per_entity:5 ~interval:(Simtime.of_ms 2) ()
  in
  let cluster, _ = Experiment.run ~config ~workload () in
  check int_t "no issues" 0
    (List.length
       (Trace_lint.lint_trace ~complete:true ~n:3 (Cluster.trace cluster)))

(* --- Trace persistence --- *)

let test_trace_save_load_roundtrip () =
  let t = Trace.create () in
  List.iter (Trace.record t)
    [
      sub ~t:1 ~src:0 ~seq:1;
      Trace.Sent { time = Simtime.of_ms 2; src = 0; uid = 7 };
      Trace.Arrived { time = Simtime.of_ms 3; dst = 1; uid = 7 };
      Trace.Dropped
        { time = Simtime.of_ms 4; dst = 2; uid = 7; reason = Trace.Injected };
      Trace.Handled { time = Simtime.of_ms 5; dst = 1; uid = 7 };
      dlv ~t:6 ~entity:1 ~src:0 ~seq:1;
      Trace.Note
        { time = Simtime.of_ms 7; entity = 0; label = "odd \"label\"\nhere" };
    ];
  let file = Filename.temp_file "colint" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Trace.save t ~file;
      match Trace.load ~file with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok back ->
        check bool_t "events preserved" true
          (Trace.events back = Trace.events t))

let test_trace_load_rejects_garbage () =
  let file = Filename.temp_file "colint" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "deliver 1 2\nnot an event\n";
      close_out oc;
      match Trace.load ~file with
      | Error msg ->
        check bool_t "names the line" true
          (String.length msg > 0
          && String.contains msg ':')
      | Ok _ -> Alcotest.fail "garbage accepted")

let () =
  Alcotest.run "check"
    [
      ( "explorer",
        [
          Alcotest.test_case "n=2 with a drop schedule" `Quick
            test_explore_n2_with_drop;
          Alcotest.test_case "n=2 three broadcasts" `Quick
            test_explore_n2_deep_script;
          Alcotest.test_case "n=3" `Quick test_explore_n3;
          Alcotest.test_case "heartbeat fires" `Slow test_explore_heartbeat;
          Alcotest.test_case "por agreement" `Quick test_explore_por_agreement;
          Alcotest.test_case "catches skip-cpi" `Quick
            test_explore_catches_skip_cpi;
          Alcotest.test_case "catches skip-minpal" `Slow
            test_explore_catches_skip_minpal;
          Alcotest.test_case "rejects Deferred" `Quick
            test_explore_rejects_deferred;
          Alcotest.test_case "join commits cleanly" `Slow test_explore_join;
          Alcotest.test_case "leave commits cleanly" `Slow test_explore_leave;
          Alcotest.test_case "catches skip-epoch" `Quick
            test_explore_catches_skip_epoch;
        ] );
      ( "state-hash",
        [
          Alcotest.test_case "deterministic" `Quick
            test_state_hash_deterministic;
          Alcotest.test_case "part boundaries" `Quick
            test_state_hash_part_boundaries;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "duplicate delivery" `Quick
            test_monitor_duplicate_delivery;
          Alcotest.test_case "causal inversion" `Quick
            test_monitor_causal_inversion;
          Alcotest.test_case "epoch fence" `Quick test_monitor_epoch_fence;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "paranoid experiment clean" `Quick
            test_paranoid_experiment_clean;
        ] );
      ( "trace-lint",
        [
          Alcotest.test_case "accepts causal order" `Quick
            test_lint_accepts_causal_order;
          Alcotest.test_case "flags causal inversion" `Quick
            test_lint_flags_causal_inversion;
          Alcotest.test_case "flags duplicate" `Quick test_lint_flags_duplicate;
          Alcotest.test_case "flags fifo inversion" `Quick
            test_lint_fifo_inversion;
          Alcotest.test_case "completeness" `Quick test_lint_completeness;
          Alcotest.test_case "real run clean" `Quick test_lint_real_run_clean;
        ] );
      ( "trace-persistence",
        [
          Alcotest.test_case "save/load roundtrip" `Quick
            test_trace_save_load_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_trace_load_rejects_garbage;
        ] );
    ]
