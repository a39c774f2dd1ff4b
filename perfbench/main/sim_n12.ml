(* sim_n12_loss5: the seed's experiment on the simulated Cluster, n = 12 with
   5% iid loss and Poisson arrivals (40 ms mean per entity over 500 simulated
   ms), instrumented with a registry and causal tracing. An experiment takes
   the steps Experiment.run takes — create, run to quiescence, the oracle,
   the summaries — with a timer around each. *)

module Cluster = Repro_core.Cluster
module Config = Repro_core.Config
module Metrics = Repro_core.Metrics
module Engine = Repro_sim.Engine
module Simtime = Repro_sim.Simtime
module Oracle = Repro_harness.Oracle
module Workload = Repro_harness.Workload
module Stats = Repro_util.Stats
module Critpath = Repro_obs.Critpath
module Sample = Pbench.Sample
module Hostspeed = Pbench.Hostspeed
module Jsonx = Repro_analysis.Jsonx

let n = 12
let loss = 0.05
let mean_interval_ms = 40.
let duration_ms = 500
let payload_bytes = 64
(* Experiment.run's bound. The network trace keeps every event, about 90
   bytes each, and at 5% loss the churn runs ~142 events per simulated ms:
   a rare seed needs 18M events (~1.6 GB, ~40 s) to deliver everything. *)
let max_events = 20_000_000

let setup ~seed ~instrumented =
  let rng = Repro_util.Prng.create ~seed in
  let workload =
    Workload.poisson ~n ~rng ~mean_interval_ms
      ~duration:(Simtime.of_ms duration_ms) ~bytes_per_msg:payload_bytes ()
  in
  let base = Cluster.default_config ~n in
  let config =
    {
      base with
      Cluster.loss_prob = loss;
      seed;
      instrument = (if instrumented then Some (Repro_obs.Registry.create ()) else None);
      protocol = { base.Cluster.protocol with Config.tracing = instrumented };
    }
  in
  let cluster = Cluster.create config in
  Workload.apply cluster workload;
  (cluster, Workload.total workload)

type experiment = {
  messages : int;
  sim_ms : float;
  wall_s : float;  (** Excluding the host-speed probes, as is [cpu_s]. *)
  cpu_s : float;
  scaled_s : float;  (** [wall_s] on the nominal host. *)
  scaled_cpu_s : float;  (** [cpu_s] on the nominal host. *)
  run_s : float;  (** The stage times are on the nominal host too. *)
  oracle_s : float;
  critpath_s : float;
  events : int;
  quiesce_ms : float;  (** Last delivery to quiescence, simulated. *)
  report : Oracle.report;
  tap_ms : float list;
  metrics : Metrics.t;
}

let experiment ?stages ~instrumented seed =
  let speed = Hostspeed.create () in
  Hostspeed.during speed ~every:Common.probe_every_s @@ fun () ->
  (* Wall time less the time spent probing. *)
  let now () = Common.wall () -. Hostspeed.wall_s speed in
  let w0 = now () and c0 = Common.cpu () in
  let cluster, messages = setup ~seed ~instrumented in
  let engine = Cluster.engine cluster in
  Option.iter
    (fun st ->
      for i = 0 to n - 1 do
        Common.observe_stages st
          ~clock:(fun () -> Simtime.to_ms (Engine.now engine))
          (Cluster.entity cluster i)
      done)
    stages;
  let w1 = now () in
  Cluster.run cluster ~max_events;
  let w2 = now () in
  Cluster.sync_metrics cluster;
  let report = Oracle.check_cluster cluster ~expected_tags:(Cluster.data_tags cluster) in
  let w3 = now () in
  (* The summaries Experiment.run builds, so the timer covers its work. *)
  let tap_ms = Cluster.delivery_latencies cluster in
  ignore (Stats.summarize tap_ms);
  ignore (Stats.summarize (Cluster.preack_latencies cluster));
  ignore (Stats.summarize (Cluster.ack_latencies cluster));
  let metrics = Cluster.aggregate_metrics cluster in
  Option.iter (fun l -> ignore (Repro_obs.Lifecycle.ladder l)) (Cluster.lifecycle cluster);
  let w4 = now () in
  Option.iter
    (fun tr ->
      let spans = Repro_obs.Trace_ctx.spans tr in
      Option.iter (fun reg -> Critpath.to_registry reg spans) (Cluster.registry cluster);
      ignore (Critpath.of_recorder tr))
    (Cluster.tracer cluster);
  let w5 = now () in
  let cpu_s = Common.cpu () -. c0 -. Hostspeed.cpu_s speed in
  let sim_ms = Simtime.to_ms (Engine.now engine) in
  let last_delivery =
    List.fold_left
      (fun acc i ->
        List.fold_left
          (fun acc (t, _) -> Float.max acc (Simtime.to_ms t))
          acc
          (Cluster.deliveries cluster ~entity:i))
      0. (List.init n Fun.id)
  in
  {
    messages;
    sim_ms;
    wall_s = w5 -. w0;
    cpu_s;
    scaled_s = Hostspeed.scale speed (w5 -. w0);
    scaled_cpu_s = Hostspeed.scale_cpu speed cpu_s;
    run_s = Hostspeed.scale speed (w2 -. w1);
    oracle_s = Hostspeed.scale speed (w3 -. w2);
    critpath_s = Hostspeed.scale speed (w5 -. w4);
    events = Engine.processed engine;
    quiesce_ms = sim_ms -. last_delivery;
    report;
    tap_ms;
    metrics;
  }

(* Expected deliveries and those the oracle faults: missing ones and
   deliveries that are duplicated or out of FIFO or causal order. *)
let failures e =
  let r = e.report in
  ( e.messages * n,
    List.length r.Oracle.missing + List.length r.dups + List.length r.fifo
    + List.length r.causal )

let sum f es = List.fold_left (fun acc e -> acc +. f e) 0. es
let mean f es = sum f es /. float_of_int (List.length es)

let run ~seed ~seconds ~trace =
  let _, setup_s = Common.timed_setup (fun () -> setup ~seed ~instrumented:true) in
  (* The seed's experiment is repeated for the run's time; every repetition
     must be the same run. A traced run repeats it three times back to back
     — as measured, with the benchmark's stage stamps, and with the program's
     own instrumentation off. *)
  let stages = Common.stages () in
  let runs =
    Common.repeat ~seconds (fun () ->
        let measured = experiment ~instrumented:true seed in
        let replays =
          if trace then
            let traced = experiment ~stages ~instrumented:true seed in
            Some (traced, experiment ~instrumented:false seed)
          else None
        in
        (measured, replays))
  in
  let base = List.map fst runs in
  let values, all =
    match List.filter_map snd runs with
    | [] ->
      let tap = Sample.create 4096 in
      List.iter (Sample.add tap) (List.hd base).tap_ms;
      let latency = Sample.percentiles tap [ 50.; 95. ] in
      ( [
          ("latency_p50_ms", List.nth latency 0);
          ("latency_p95_ms", List.nth latency 1);
          ( "throughput_per_s",
            sum (fun e -> e.sim_ms) base /. sum (fun e -> e.scaled_s) base );
          ( "cpu_us_per_op",
            sum (fun e -> e.scaled_cpu_s) base *. 1e6 /. sum (fun e -> e.sim_ms) base );
          ("setup_s", setup_s);
        ],
        base )
    | replays ->
      let traced = List.map fst replays and bare = List.map snd replays in
      let e = List.hd traced in
      let wall es = sum (fun e -> e.scaled_s) es in
      ( [
          ("sim.run_s", mean (fun e -> e.run_s) traced);
          ("sim.events", float_of_int e.events);
          ( "sim.events_per_s",
            sum (fun e -> float_of_int e.events) traced /. sum (fun e -> e.run_s) traced );
          ("sim.quiesce_ms", e.quiesce_ms);
          ("sim.msgs_per_s", float_of_int e.messages /. mean (fun e -> e.wall_s) traced);
          ("harness.oracle_s", mean (fun e -> e.oracle_s) traced);
          ("obs.critpath_s", mean (fun e -> e.critpath_s) traced);
          ("obs.overhead_ratio", wall base /. wall bare);
          ("trace.overhead_ratio", wall traced /. wall base);
          ("mem.peak_heap_mb", Common.peak_heap_mb ());
        ]
        @ Common.stage_values stages
        @ Common.metrics_per_message e.metrics ~messages:e.messages
            ~deliveries:e.metrics.Metrics.delivered,
        base @ traced @ bare )
  in
  (* A repetition that is not the same run as the first fails outright. *)
  let first = List.hd all in
  let attempted, failed =
    List.fold_left
      (fun (a, f) e ->
        let a', f' = failures e in
        let f' = if e.events = first.events && e.sim_ms = first.sim_ms then f' else a' in
        (a + a', f + f'))
      (0, 0) all
  in
  {
    Pbench.Report.outcome = { correct = failed = 0; attempted; failed; values };
    params =
      [
        ("n", Jsonx.Int n);
        ("loss", Jsonx.Float loss);
        ("arrivals", Jsonx.String "poisson");
        ("mean_interval_ms", Jsonx.Float mean_interval_ms);
        ("duration_ms", Jsonx.Int duration_ms);
        ("payload_bytes", Jsonx.Int payload_bytes);
        ("instrumented", Jsonx.String "registry+tracing");
        ("max_events", Jsonx.Int max_events);
        ("messages", Jsonx.Int (List.hd base).messages);
      ];
    network = "simulated";
    repetitions = List.length base;
    notes =
      List.map
        (fun e ->
          Printf.sprintf
            "experiment: %d messages, %d events, %.0f simulated ms (quiet \
             %.0f ms after the last delivery), %.3f s wall (%.3f s on the \
             nominal host, %.0f simulated ms/s), oracle %s"
            e.messages e.events e.sim_ms e.quiesce_ms e.wall_s e.scaled_s
            (e.sim_ms /. e.scaled_s)
            (if Oracle.ok e.report then "ok" else "FAILED"))
        all;
  }
