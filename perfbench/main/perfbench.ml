(* The repository's benchmark. One run measures one workload:

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   run from the repository root (it reads BENCHMARK.json there). The output
   is a provenance line, human-readable detail and metric lines, and last a
   one-line JSON result. With --trace 0 the result holds the end-to-end
   metrics; with --trace 1 it holds the per-layer metrics, timed from this
   program's calls into each layer. See perfbench/README.md. *)

module Report = Pbench.Report
module Jsonx = Repro_analysis.Jsonx

let workloads =
  [
    ("udp_n8", Udp_n8.run);
    ("sim_n12_loss5", Sim_n12.run);
    ("explore_n2", Explore_n2.run);
  ]

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are made from");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun arg -> fail "unexpected argument %S" arg)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let spec = match Report.load_spec "BENCHMARK.json" with Ok s -> s | Error e -> fail "%s" e in
  if not (List.mem !workload spec.Report.workloads) then
    fail "unknown workload %S (BENCHMARK.json lists %s)" !workload
      (String.concat ", " spec.workloads);
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None -> fail "workload %S is listed but not implemented" !workload
  in
  if !seconds < 1 then fail "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let trace = !trace = 1 in
  let r = run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace in
  let metrics =
    match Report.metrics spec ~trace r.Report.outcome with
    | Ok m -> m
    | Error e -> fail "%s" e
  in
  print_endline
    ("provenance "
    ^ Jsonx.to_string ~indent:false
        (Report.provenance ~seed:!seed ~workload:!workload ~params:r.params
           ~network:r.network ~seconds:!seconds ~trace ~runs:r.repetitions));
  List.iter print_endline r.notes;
  List.iter
    (fun ((m : Report.metric), v) -> Printf.printf "%-40s %14.6g %s\n" m.name v m.unit)
    metrics;
  let o = r.outcome in
  Printf.printf "%-40s %14.6g (%d of %d failed)\n" "failed_ratio"
    (Pbench.Sample.ratio (float_of_int o.failed) (float_of_int o.attempted))
    o.failed o.attempted;
  print_endline (Report.result_line o metrics)
