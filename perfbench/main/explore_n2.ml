(* explore_n2: the model checker on the scope CI runs (n = 2, 2 broadcasts,
   at most 1 drop, Immediate confirmation), explored exhaustively again and
   again until the run's time is up. The seed only names the payloads, so
   every exploration must visit the same states and transitions. *)

module Explorer = Repro_check.Explorer
module Entity = Repro_core.Entity
module Sample = Pbench.Sample
module Hostspeed = Pbench.Hostspeed
module Jsonx = Repro_analysis.Jsonx

let n = 2
let broadcasts = 2
let drops = 1

let config ~seed =
  let rng = Repro_util.Prng.create ~seed in
  let base = Explorer.default_config ~n in
  {
    base with
    Explorer.script =
      List.init broadcasts (fun i ->
          (i mod n, Printf.sprintf "m%d-%06x" i (Repro_util.Prng.int rng 0x1000000)));
    max_drops = drops;
  }

type exploration = {
  outcome : Explorer.outcome;
  wall_s : float;  (** Excluding the host-speed probes. *)
  cpu_s : float;  (** Excluding the host-speed probes. *)
  scaled_s : float;  (** [wall_s] on the nominal host. *)
  scaled_cpu_s : float;  (** [cpu_s] on the nominal host. *)
  replays : int;
  replayed_events : int;
}

let explore ~traced cfg =
  let replays = ref 0 and events = ref 0 in
  let cfg =
    if traced then
      {
        cfg with
        Explorer.on_system =
          (fun entities ->
            incr replays;
            Array.iter (fun e -> Entity.add_observer e (fun _ -> incr events)) entities);
      }
    else cfg
  in
  let speed = Hostspeed.create () in
  let w0 = Common.wall () and c0 = Common.cpu () in
  let outcome = Hostspeed.during speed ~every:Common.probe_every_s (fun () -> Explorer.run cfg) in
  let wall_s = Common.wall () -. w0 -. Hostspeed.wall_s speed in
  let cpu_s = Common.cpu () -. c0 -. Hostspeed.cpu_s speed in
  {
    outcome;
    wall_s;
    cpu_s;
    scaled_s = Hostspeed.scale speed wall_s;
    scaled_cpu_s = Hostspeed.scale_cpu speed cpu_s;
    replays = !replays;
    replayed_events = !events;
  }

let repeat ~seconds ~traced cfg = Common.repeat ~seconds (fun () -> explore ~traced cfg)

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let states x = float_of_int x.outcome.Explorer.states
let states_per_s xs = sum states xs /. sum (fun x -> x.scaled_s) xs

let run ~seed ~seconds ~trace =
  let cfg, setup_s = Common.timed_setup ~batch:1000 (fun () -> config ~seed) in
  (* One exploration grows the heap to its working size before any is
     timed; it is checked with the others. *)
  let warmup = explore ~traced:false cfg in
  (* A traced run splits its time between untraced and traced explorations. *)
  let seconds = (seconds -. warmup.wall_s) /. if trace then 2. else 1. in
  let base = repeat ~seconds ~traced:false cfg in
  let values, all =
    if trace then begin
      let traced = repeat ~seconds ~traced:true cfg in
      let last = List.hd (List.rev traced) in
      ( [
          ("check.states", states last);
          ("check.transitions", float_of_int last.outcome.Explorer.transitions);
          ("check.replays", float_of_int last.replays);
          ("check.replayed_events", float_of_int last.replayed_events);
          ("trace.overhead_ratio", states_per_s base /. states_per_s traced);
          ("mem.peak_heap_mb", Common.peak_heap_mb ());
        ],
        (warmup :: base) @ traced )
    end
    else
      let ms = Sample.create 16 in
      List.iter (fun x -> Sample.add ms (x.scaled_s *. 1000.)) base;
      ( [
          ("latency_p50_ms", Sample.percentile ms 50.);
          ("latency_p95_ms", Sample.percentile ms 95.);
          ("throughput_per_s", states_per_s base);
          ( "cpu_us_per_op",
            sum (fun x -> x.scaled_cpu_s) base *. 1e6 /. sum states base );
          ("setup_s", setup_s);
        ],
        warmup :: base )
  in
  (* A violation, a truncated search, or a state space that differs from the
     first exploration's is a failed exploration. *)
  let reference = (List.hd all).outcome in
  let bad x =
    let o = x.outcome in
    Option.is_some o.Explorer.violation
    || o.truncated
    || o.states <> reference.states
    || o.transitions <> reference.transitions
  in
  let failed = List.length (List.filter bad all) in
  {
    Pbench.Report.outcome =
      { correct = failed = 0; attempted = List.length all; failed; values };
    params =
      [
        ("n", Jsonx.Int n);
        ("broadcasts", Jsonx.Int broadcasts);
        ("max_drops", Jsonx.Int drops);
        ("max_fires", Jsonx.Int cfg.Explorer.max_fires);
        ("defer", Jsonx.String "immediate");
        ("por", Jsonx.Bool cfg.por);
        ("max_states", Jsonx.Int cfg.max_states);
        ("max_depth", Jsonx.Int cfg.max_depth);
      ];
    network = "none";
    repetitions = List.length all - 1;
    notes =
      List.map
        (fun x ->
          Format.asprintf "exploration: %.3f s wall (%.3f s on the nominal host), %a"
            x.wall_s x.scaled_s Explorer.pp_outcome x.outcome)
        all;
  }
