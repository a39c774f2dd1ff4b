(* Scenario DSL compilation and PAC-oracle properties (acceptance suite
   for the seeded scenario generator). *)

module Simtime = Repro_sim.Simtime
module Topology = Repro_sim.Topology
module Plan = Repro_fault.Plan
module Workload = Repro_harness.Workload
module Pac = Repro_harness.Pac
module Oracle = Repro_harness.Oracle
module Scenario = Repro_scenario.Scenario
module Runner = Repro_scenario.Runner

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let ms = Simtime.of_ms

(* ------------------------------------------------------------------ *)
(* Registry / builtins                                                 *)

let test_builtins_findable () =
  check int_t "five named scenarios" 5 (List.length Scenario.builtins);
  List.iter
    (fun name ->
      match Scenario.find name with
      | Some s -> check Alcotest.string "name matches" name s.Scenario.name
      | None -> Alcotest.fail ("builtin not findable: " ^ name))
    Scenario.names;
  check bool_t "unknown name" true (Scenario.find "no-such-scenario" = None)

let test_builtin_shapes_cover_acceptance () =
  (* The acceptance criteria demand at least one bursty/hotspot, one
     asymmetric-delay WAN, one correlated-loss and one churn scenario. *)
  let has pred = List.exists pred Scenario.builtins in
  check bool_t "bursty or hotspot" true
    (has (fun s ->
         match s.Scenario.workload with
         | Scenario.Bursty _ | Scenario.Hotspot _ -> true
         | _ -> false));
  check bool_t "asymmetric WAN" true
    (has (fun s ->
         match s.Scenario.delays with
         | Scenario.Wan { asymmetry; _ } -> asymmetry > 1.0
         | _ -> false));
  check bool_t "correlated loss" true
    (has (fun s ->
         match s.Scenario.loss with
         | Scenario.Gilbert_elliott _ -> true
         | _ -> false));
  check bool_t "churn" true (has (fun s -> s.Scenario.churn <> []))

(* ------------------------------------------------------------------ *)
(* Compilation: validity, observers, malformed scenarios               *)

let test_compile_observers_and_down () =
  let c = Scenario.compile ~seed:11 Scenario.burst_storm in
  check (Alcotest.list int_t) "no churn: all observe" [ 0; 1; 2; 3; 4 ]
    c.Scenario.observers;
  check (Alcotest.list int_t) "nobody starts down" [] c.Scenario.initially_down;
  let cw = Scenario.compile ~seed:11 Scenario.churn_wave in
  check bool_t "churned node not an observer" false
    (List.mem 3 cw.Scenario.observers);
  check bool_t "leave-first node starts up" false
    (List.mem 3 cw.Scenario.initially_down)

let test_compile_rejects_malformed () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let base = Scenario.burst_storm in
  check bool_t "churn on node 0 refused" true
    (raises (fun () ->
         Scenario.compile ~seed:1
           {
             base with
             Scenario.churn =
               [ { Scenario.at = ms 10; node = 0; kind = `Leave } ];
           }));
  check bool_t "overlapping partitions refused" true
    (raises (fun () ->
         Scenario.compile ~seed:1
           {
             base with
             Scenario.partitions =
               [
                 (ms 10, [ [ 0; 1 ]; [ 2; 3; 4 ] ], ms 40);
                 (ms 30, [ [ 0; 1; 2 ]; [ 3; 4 ] ], ms 60);
               ];
           }));
  check bool_t "WAN cluster sizes must sum to n" true
    (raises (fun () ->
         Scenario.compile ~seed:1
           {
             base with
             Scenario.delays =
               Scenario.Wan
                 {
                   clusters = [ 2; 2 ];
                   local_lo = ms 1;
                   local_hi = ms 1;
                   cross_lo = ms 2;
                   cross_hi = ms 3;
                   asymmetry = 2.0;
                 };
           }))

(* Every compiled plan is valid, time-sorted, and heals before the
   horizon — across builtins and seeds. *)
let prop_compile_plans_valid =
  QCheck.Test.make ~name:"compiled plans validate, sorted, pre-horizon"
    ~count:60
    QCheck.(pair (0 -- 4) small_nat)
    (fun (which, seed) ->
      let s = List.nth Scenario.builtins which in
      let c = Scenario.compile ~seed s in
      Plan.validate ~n:s.Scenario.n c.Scenario.plan;
      let sorted =
        let rec go = function
          | a :: (b :: _ as rest) -> a.Plan.at <= b.Plan.at && go rest
          | _ -> true
        in
        go c.Scenario.plan.Plan.events
      in
      sorted
      && List.for_all
           (fun e -> e.Plan.at < s.Scenario.horizon)
           c.Scenario.plan.Plan.events
      && List.for_all
           (fun { Workload.at; src; _ } -> at >= 0 && src >= 0 && src < s.Scenario.n)
           c.Scenario.workload)

(* ------------------------------------------------------------------ *)
(* WAN delay matrices respect the declared bounds                      *)

let site_of clusters i =
  let rec go site lo = function
    | [] -> invalid_arg "site_of"
    | sz :: rest -> if i < lo + sz then site else go (site + 1) (lo + sz) rest
  in
  go 0 0 clusters

let wan_bounds_hold ~seed s =
  match s.Scenario.delays with
  | Scenario.Uniform_delay _ -> true
  | Scenario.Wan { clusters; local_lo; local_hi; cross_lo; cross_hi; asymmetry }
    ->
    let c = Scenario.compile ~seed s in
    let topo = c.Scenario.topology in
    let n = Topology.n topo in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let d = Topology.delay topo ~src:i ~dst:j in
          let d' = Topology.delay topo ~src:j ~dst:i in
          if site_of clusters i = site_of clusters j then begin
            (* intra-site: symmetric, within the local range *)
            if d < local_lo || d > local_hi || d <> d' then ok := false
          end
          else begin
            (* inter-site: both directions within the cross range, and the
               directional ratio within the declared asymmetry bound *)
            if d < cross_lo || d > cross_hi then ok := false;
            let hi = float_of_int (max d d') and lo = float_of_int (min d d') in
            if hi /. lo > asymmetry +. 1e-9 then ok := false
          end
        end
      done
    done;
    !ok

let prop_wan_asymmetry_bounds =
  QCheck.Test.make ~name:"WAN matrices respect declared delay/asymmetry bounds"
    ~count:80 QCheck.small_nat (fun seed ->
      wan_bounds_hold ~seed Scenario.wan_hotspot
      && wan_bounds_hold ~seed Scenario.flaky_wan)

(* ------------------------------------------------------------------ *)
(* Zipf: realized frequencies match the declared skew                  *)

let prop_zipf_matches_skew =
  QCheck.Test.make ~name:"zipf quotas sum, rank-monotone, track ideal shares"
    ~count:80
    QCheck.(triple (2 -- 8) (0 -- 25) (10 -- 200))
    (fun (n, e10, total) ->
      let exponent = float_of_int e10 /. 10. in
      let q = Workload.zipf_quotas ~n ~exponent ~total in
      let sum = Array.fold_left ( + ) 0 q in
      (* With exponent 0 every weight ties and the remainder tie-break may
         hand the spare message to any rank; monotonicity in rank is only
         guaranteed under actual skew. *)
      let monotone = ref true in
      if exponent > 0. then
        for r = 0 to n - 2 do
          if q.(r) < q.(r + 1) then monotone := false
        done;
      let weights =
        Array.init n (fun r -> 1. /. Float.pow (float_of_int (r + 1)) exponent)
      in
      let wsum = Array.fold_left ( +. ) 0. weights in
      let close = ref true in
      Array.iteri
        (fun r w ->
          let ideal = float_of_int total *. w /. wsum in
          (* largest-remainder apportionment is within one message *)
          if Float.abs (float_of_int q.(r) -. ideal) > 1. then close := false)
        weights;
      sum = total && !monotone && !close)

let test_zipf_workload_counts_match_quotas () =
  let c = Scenario.compile ~seed:5 Scenario.zipf_spray in
  match c.Scenario.scenario.Scenario.workload with
  | Scenario.Zipf { exponent; total; _ } ->
    let n = c.Scenario.scenario.Scenario.n in
    let quotas = Workload.zipf_quotas ~n ~exponent ~total in
    let counts = Array.make n 0 in
    List.iter
      (fun { Workload.src; _ } -> counts.(src) <- counts.(src) + 1)
      c.Scenario.workload;
    for r = 0 to n - 1 do
      check int_t (Printf.sprintf "sender %d count" r) quotas.(r) counts.(r)
    done
  | _ -> Alcotest.fail "zipf_spray is not Zipf?"

(* ------------------------------------------------------------------ *)
(* PAC oracle properties                                               *)

let prop_pac_curve_monotone =
  QCheck.Test.make
    ~name:"PAC curves are monotone; terminal = delivered/expected" ~count:150
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 30) (0 -- 500))
        (list_of_size Gen.(1 -- 10) (0 -- 600)))
    (fun (lats, deads) ->
      let latencies_ms = List.map float_of_int lats in
      let deadlines_ms = List.map float_of_int deads in
      let expected = List.length latencies_ms + 3 in
      let c = Pac.curve ~protocol:"co" ~expected ~deadlines_ms ~latencies_ms in
      Pac.monotone c
      && Float.abs
           (Pac.terminal c
           -. (float_of_int c.Pac.delivered /. float_of_int expected))
         < 1e-12
      && List.for_all
           (fun { Pac.deadline_ms; probability } ->
             Float.abs (Pac.probability_at c ~deadline_ms -. probability)
             < 1e-12)
           c.Pac.points)

let test_pac_rejects_bad_inputs () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check bool_t "negative expected" true
    (raises (fun () ->
         Pac.curve ~protocol:"co" ~expected:(-1) ~deadlines_ms:[ 1. ]
           ~latencies_ms:[]));
  check bool_t "negative latency" true
    (raises (fun () ->
         Pac.curve ~protocol:"co" ~expected:2 ~deadlines_ms:[ 1. ]
           ~latencies_ms:[ -0.5 ]));
  check bool_t "more latencies than obligations" true
    (raises (fun () ->
         Pac.curve ~protocol:"co" ~expected:1 ~deadlines_ms:[ 1. ]
           ~latencies_ms:[ 1.; 2. ]))

(* ------------------------------------------------------------------ *)
(* End-to-end: loss-free terminal 1.0, oracle agreement, determinism   *)

let run_all ~seed scenario =
  let compiled = Scenario.compile ~seed scenario in
  ( compiled,
    List.map (Runner.run ~compiled ~seed) Runner.all_protocols )

let test_loss_free_run_terminates_at_one () =
  (* wan_hotspot has no loss, no partitions and no churn: every protocol
     must meet every obligation, and CO must satisfy the exact oracle. *)
  let _, results = run_all ~seed:3 Scenario.wan_hotspot in
  List.iter
    (fun r ->
      check bool_t
        (Runner.protocol_name r.Runner.protocol ^ " terminal = 1.0")
        true
        (Pac.terminal r.Runner.curve = 1.0))
    results;
  let co = List.find (fun r -> r.Runner.protocol = Runner.Co) results in
  check bool_t "CO causal order clean" true co.Runner.causal_ok;
  match co.Runner.oracle with
  | Some report -> check bool_t "CO oracle ok" true (Oracle.ok report)
  | None -> Alcotest.fail "CO run must carry an oracle report"

let test_pac_one_implies_oracle_ok () =
  (* The acceptance property: whenever PAC reports terminal probability
     1.0 for CO, the exact causal-order oracle must also pass. *)
  List.iter
    (fun s ->
      let compiled = Scenario.compile ~seed:9 s in
      let r = Runner.run ~compiled ~seed:9 Runner.Co in
      if Pac.terminal r.Runner.curve = 1.0 then begin
        check bool_t
          (s.Scenario.name ^ ": PAC 1.0 implies causal order")
          true r.Runner.causal_ok;
        match r.Runner.oracle with
        | Some report ->
          check bool_t (s.Scenario.name ^ ": oracle agrees") true
            (Oracle.ok report)
        | None -> Alcotest.fail "missing oracle report"
      end)
    Scenario.builtins

let test_same_seed_byte_identical_artifact () =
  let artifact ~seed s =
    let compiled, results = run_all ~seed s in
    let deadlines_ms = Runner.deadline_grid compiled results in
    ignore deadlines_ms;
    Runner.artifact_json ~compiled ~seed results
  in
  let a = artifact ~seed:21 Scenario.burst_storm in
  let b = artifact ~seed:21 Scenario.burst_storm in
  check bool_t "same seed, byte-identical artifact" true (String.equal a b);
  let c = artifact ~seed:22 Scenario.burst_storm in
  check bool_t "different seed, different runs" false (String.equal a c)

(* The committed artifacts pin the fault path byte for byte: churn_wave
   exercises the Leave/Join network silence and initially-down nodes,
   flaky_wan the Gilbert–Elliott loss draws. *)
let fixture_path name =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name)
        (Filename.concat "fixtures" name);
      Filename.concat "test/fixtures" name;
      Filename.concat "fixtures" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let test_golden_artifacts () =
  List.iter
    (fun s ->
      let seed = 42 in
      let compiled, results = run_all ~seed s in
      let actual = Runner.artifact_json ~compiled ~seed results in
      let path =
        fixture_path
          (Printf.sprintf "pac_%s.golden.json" s.Scenario.name)
      in
      let stored = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.string (s.Scenario.name ^ " artifact") stored actual)
    [ Scenario.churn_wave; Scenario.flaky_wan ]

(* Scenario plans take every injector action. wan_hotspot's own plan is
   empty, so these scripts are the only faults in the run. *)
let with_events events =
  let compiled = Scenario.compile ~seed:42 Scenario.wan_hotspot in
  check int_t "wan_hotspot plan is empty" 0
    (List.length compiled.Scenario.plan.Plan.events);
  {
    compiled with
    Scenario.plan =
      {
        compiled.Scenario.plan with
        Plan.events =
          List.map (fun (at, action) -> { Plan.at = ms at; action }) events;
      };
  }

let check_complete compiled protocols =
  List.iter
    (fun p ->
      let r = Runner.run ~compiled ~seed:42 p in
      check bool_t
        (Runner.protocol_name p ^ " terminal = 1.0")
        true
        (Pac.terminal r.Runner.curve = 1.0);
      match r.Runner.oracle with
      | Some report -> check bool_t "CO oracle ok" true (Oracle.ok report)
      | None -> ())
    protocols

let test_stall_plan () =
  check_complete
    (with_events
       [ (20, Plan.Stall { entity = 2; factor = 4 }); (80, Plan.Unstall 2) ])
    Runner.all_protocols

let test_duplicate_plan () =
  let compiled =
    with_events [ (10, Plan.Duplicate 0.3); (90, Plan.Duplicate 0.0) ]
  in
  check_complete compiled [ Runner.Co; Runner.Tobcast ];
  Alcotest.check_raises "cbcast refuses a duplicating medium"
    (Invalid_argument
       "Runner.run: plan wan_hotspot duplicates copies, but cbcast assumes a \
        duplicate-free medium (it delivers both copies)")
    (fun () -> ignore (Runner.run ~compiled ~seed:42 Runner.Cbcast))

(* ------------------------------------------------------------------ *)

let qsuite tests = Qutil.qsuite ~long:false tests

let () =
  Alcotest.run "scenario"
    [
      ( "dsl",
        [
          Alcotest.test_case "builtins findable" `Quick test_builtins_findable;
          Alcotest.test_case "builtins cover acceptance shapes" `Quick
            test_builtin_shapes_cover_acceptance;
          Alcotest.test_case "observers and initially-down" `Quick
            test_compile_observers_and_down;
          Alcotest.test_case "malformed scenarios rejected" `Quick
            test_compile_rejects_malformed;
          Alcotest.test_case "zipf workload matches quotas" `Quick
            test_zipf_workload_counts_match_quotas;
        ]
        @ qsuite
            [
              prop_compile_plans_valid;
              prop_wan_asymmetry_bounds;
              prop_zipf_matches_skew;
            ] );
      ( "pac",
        [
          Alcotest.test_case "rejects bad inputs" `Quick
            test_pac_rejects_bad_inputs;
          Alcotest.test_case "loss-free terminal 1.0" `Slow
            test_loss_free_run_terminates_at_one;
          Alcotest.test_case "PAC 1.0 implies exact order" `Slow
            test_pac_one_implies_oracle_ok;
          Alcotest.test_case "same-seed artifacts byte-identical" `Slow
            test_same_seed_byte_identical_artifact;
          Alcotest.test_case "artifacts match the committed goldens" `Slow
            test_golden_artifacts;
          Alcotest.test_case "stall plan completes" `Slow test_stall_plan;
          Alcotest.test_case "duplicate plan completes; cbcast refuses" `Slow
            test_duplicate_plan;
        ]
        @ qsuite [ prop_pac_curve_monotone ] );
    ]
