(* Tests for the benchmark's own helpers: the external delivery checker, the
   sample statistics and the host-speed scaling. *)

module Check = Pbench.Delivery_check
module Sample = Pbench.Sample
module Hostspeed = Pbench.Hostspeed

let verdict = Alcotest.testable (fun ppf (v : Check.verdict) ->
    Format.fprintf ppf
      "{attempted=%d; duplicates=%d; out_of_order=%d; causal=%d; unknown=%d; \
       missing=%d; failed=%d}"
      v.attempted v.duplicates v.out_of_order v.causal v.unknown v.missing
      v.failed) ( = )

(* n = 2: ids 0, 2, 4 come from source 0 and ids 1, 3 from source 1. *)
let submit_all check k = List.init k (fun _ -> Check.submit check)

let clean_log () =
  let c = Check.create ~n:2 ~capacity:4 in
  ignore (submit_all c 4);
  List.iter (fun (m, g) -> Check.deliver c ~member:m g)
    [ (0, 0); (1, 0); (1, 1); (0, 1); (0, 2); (1, 2); (0, 3); (1, 3) ];
  Alcotest.(check bool) "complete" true (Check.complete c);
  Alcotest.(check verdict) "no failures"
    { attempted = 8; duplicates = 0; out_of_order = 0; causal = 0; unknown = 0;
      missing = 0; failed = 0 }
    (Check.verdict c)

let crafted_log () =
  let c = Check.create ~n:2 ~capacity:4 in
  (* Member 1 delivers 0 before source 1 submits 1, so 1 causally follows 0. *)
  ignore (Check.submit c);
  Check.deliver c ~member:1 0;
  ignore (submit_all c 3);
  (* Member 0: 1 before its predecessor 0 (causal), then 0, then 4... *)
  List.iter (fun (m, g) -> Check.deliver c ~member:m g)
    [ (0, 1); (0, 0); (0, 2);
      (* ...member 1: 2 twice (duplicate), 3 then 1 (reordered source 1). *)
      (1, 2); (1, 2); (1, 3); (1, 1);
      (* An id nobody submitted. *)
      (0, 7) ];
  (* Member 0 never delivers 3: missing. *)
  Alcotest.(check bool) "incomplete" false (Check.complete c);
  Alcotest.(check verdict) "each fault counted"
    { attempted = 8; duplicates = 1; out_of_order = 1; causal = 1; unknown = 1;
      missing = 1; failed = 5 }
    (Check.verdict c)

let over_capacity () =
  let c = Check.create ~n:2 ~capacity:1 in
  ignore (Check.submit c);
  Alcotest.check_raises "full" (Invalid_argument "Delivery_check.submit: over capacity")
    (fun () -> ignore (Check.submit c))

let sample_of xs =
  let s = Sample.create 2 in
  List.iter (Sample.add s) xs;
  s

let percentiles () =
  let s = sample_of (List.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check int) "length" 100 (Sample.length s);
  Alcotest.(check (list (float 0.))) "nearest rank" [ 1.; 50.; 99.; 100. ]
    (Sample.percentiles s [ 0.; 50.; 99.; 100. ]);
  Alcotest.(check (float 0.)) "small sample" 3. (Sample.percentile (sample_of [ 3.; 1.; 2. ]) 99.);
  Alcotest.(check (float 0.)) "empty" 0. (Sample.percentile (Sample.create 0) 50.);
  Alcotest.(check (float 0.)) "median" 2. (Sample.median [ 5.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "ratio of nothing" 0. (Sample.ratio 3. 0.)

let lateness () =
  let sched = { Sample.Schedule.start = 10.; rate = 2000. } in
  Alcotest.(check (float 1e-12)) "due" 10.5 (Sample.Schedule.due sched 1000);
  Alcotest.(check (float 1e-9)) "late" 2.5
    (Sample.Schedule.lateness_ms sched 1000 ~now:10.5025);
  Alcotest.(check (float 0.)) "early is on time" 0.
    (Sample.Schedule.lateness_ms sched 1000 ~now:10.4)

let host_scaling () =
  let t = Hostspeed.create () in
  Alcotest.(check (float 0.)) "unprobed: as measured" 2. (Hostspeed.scale t 2.);
  for _ = 1 to 4 do
    Hostspeed.probe t
  done;
  Alcotest.(check int) "passes" 4 (Hostspeed.passes t);
  let mean = Hostspeed.wall_s t /. 4. in
  Alcotest.(check (float 1e-12)) "scaled by the mean pass"
    (2. *. Hostspeed.nominal_s /. mean) (Hostspeed.scale t 2.);
  let probes = Hostspeed.passes t in
  let r = Hostspeed.during t ~every:0.002 (fun () ->
      let until = Unix.gettimeofday () +. 0.05 in
      while Unix.gettimeofday () < until do () done;
      42)
  in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "probed while running" true (Hostspeed.passes t > probes);
  let after = Hostspeed.passes t in
  let until = Unix.gettimeofday () +. 0.01 in
  while Unix.gettimeofday () < until do () done;
  Alcotest.(check int) "timer stopped" after (Hostspeed.passes t)

let () =
  Alcotest.run "pbench"
    [
      ( "delivery_check",
        [
          Alcotest.test_case "clean log" `Quick clean_log;
          Alcotest.test_case "reorder, duplicate, missing" `Quick crafted_log;
          Alcotest.test_case "capacity" `Quick over_capacity;
        ] );
      ( "sample",
        [
          Alcotest.test_case "percentiles" `Quick percentiles;
          Alcotest.test_case "generator lateness" `Quick lateness;
        ] );
      ("hostspeed", [ Alcotest.test_case "scaling and timer" `Quick host_scaling ]);
    ]
