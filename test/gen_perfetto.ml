(* Regenerate the committed golden fixtures after an intentional exporter,
   recorder or scenario change:

     dune exec test/gen_perfetto.exe > test/fixtures/perfetto.golden.json
     dune exec test/gen_perfetto.exe recorder > test/fixtures/recorder.golden.prom

   The scenarios here must stay byte-for-byte in sync with
   [perfetto_scenario] and [recorder_scenario] in test_trace.ml — same n,
   seed, loss, submit schedule and crash times — or the golden tests will
   (correctly) fail. *)

module Cluster = Repro_core.Cluster
module Config = Repro_core.Config
module Simtime = Repro_sim.Simtime
module Trace_ctx = Repro_obs.Trace_ctx
module Critpath = Repro_obs.Critpath
module Registry = Repro_obs.Registry
module Exporter = Repro_obs.Exporter

let cluster ?instrument () =
  let base = Cluster.default_config ~n:3 in
  let cfg =
    {
      base with
      Cluster.protocol = { base.Cluster.protocol with Config.tracing = true };
      seed = 42;
      loss_prob = 0.1;
      instrument;
    }
  in
  let c = Cluster.create cfg in
  List.iteri
    (fun i (at, src) ->
      Cluster.submit_at c ~at:(Simtime.of_ms at) ~src (Printf.sprintf "p%d" i))
    [ (1, 0); (2, 1); (3, 2); (5, 0); (8, 1) ];
  c

let tracer c =
  match Cluster.tracer c with
  | Some tr -> tr
  | None ->
    prerr_endline "tracing-enabled cluster has no recorder";
    exit 1

(* The families the span recorder feeds, in the exposition. *)
let recorder_families =
  [
    "co_ladder_stage_seconds";
    "co_submit_queue_seconds";
    "co_deliver_batch_size";
    "co_spans_abandoned_total";
  ]

let recorder_lines prom =
  let family line =
    let name =
      match String.split_on_char ' ' line with
      | "#" :: _ :: name :: _ -> name
      | first :: _ -> (
        match String.index_opt first '{' with
        | Some i -> String.sub first 0 i
        | None -> first)
      | [] -> ""
    in
    List.find_opt
      (fun f ->
        List.exists
          (fun suffix -> name = f ^ suffix)
          [ ""; "_bucket"; "_sum"; "_count" ])
      recorder_families
  in
  List.filter
    (fun l -> Option.is_some (family l))
    (String.split_on_char '\n' prom)

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
    let c = cluster () in
    Cluster.run c ~max_events:400_000;
    print_string (Critpath.to_perfetto (Trace_ctx.spans (tracer c)))
  | [ _; "recorder" ] ->
    (* Entity 1 crashes mid-ladder and restarts from its checkpoint. *)
    let reg = Registry.create () in
    let c = cluster ~instrument:reg () in
    Cluster.run c ~until:(Simtime.of_ms 6);
    Cluster.crash c ~id:1;
    Cluster.run c ~until:(Simtime.of_ms 30);
    Cluster.restart c ~id:1;
    Cluster.run c ~max_events:400_000;
    List.iter print_endline (recorder_lines (Exporter.to_prometheus reg));
    print_endline (Critpath.summary_to_json (Critpath.of_recorder (tracer c)))
  | _ ->
    prerr_endline "usage: gen_perfetto [recorder]";
    exit 2
