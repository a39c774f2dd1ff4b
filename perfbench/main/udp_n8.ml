(* udp_n8: a Udp_cluster of 8 on loopback under a fixed open-loop load.

   One process and one thread generate the load and host the cluster, so
   the 8 sockets are the system under test. Requests are due at a fixed
   2,000 msg/s total, sources taking turns round-robin; each is timed from
   its due time, so a stalled event loop charges its delay to every request
   it held up. *)

module Udp_cluster = Repro_transport.Udp_cluster
module Entity = Repro_core.Entity
module Metrics = Repro_core.Metrics
module Codec = Repro_pdu.Codec
module Pdu = Repro_pdu.Pdu
module Wirestats = Repro_obs.Wirestats
module Monoclock = Repro_util.Monoclock
module Sample = Pbench.Sample
module Hostspeed = Pbench.Hostspeed
module Schedule = Pbench.Sample.Schedule
module Check = Pbench.Delivery_check
module Jsonx = Repro_analysis.Jsonx

let n = 8
let rate = 2000.
let payload_bytes = 64
let warmup_s = 1.
let drain_s = 5.

(* In the measured window the loop runs a host-speed probe when it is idle
   and [probe_interval_s] has passed since the last one. *)
let probe_interval_s = 0.02

(* A 64-byte payload: the request id in the first 4 bytes, seeded filler
   after it. *)
let filler ~seed =
  let rng = Repro_util.Prng.create ~seed in
  String.init payload_bytes (fun _ -> Char.chr (32 + Repro_util.Prng.int rng 95))

let payload filler g =
  let b = Bytes.of_string filler in
  Bytes.set_int32_le b 0 (Int32.of_int g);
  Bytes.unsafe_to_string b

let request_id (d : Pdu.data) =
  if String.length d.payload <> payload_bytes then -1
  else Int32.to_int (String.get_int32_le d.payload 0)

(* Per-layer timers for a traced pass; none of them runs untraced. *)
type tracer = {
  submit_us : Sample.t;
  step_cpu_us : Sample.t;
  mutable step_cpu_s : float;
  due_to_accept_ms : Sample.t;
  stages : Common.stages;
  mutable decode_ns : int;
  mutable decoded : int;
  mutable encode_ns : int;
  mutable encoded : int;
}

let elapsed_ns t0 = Int64.to_int (Int64.sub (Monoclock.now_ns ()) t0)

(* Time the codec on the real datagrams: decode each one, re-encode what it
   held, and pass the original through untouched. *)
let codec_hook tr ~dst:_ ~src:_ datagram =
  let t0 = Monoclock.now_ns () in
  (match Codec.decode_any datagram with
  | Ok pdus ->
    tr.decode_ns <- tr.decode_ns + elapsed_ns t0;
    let k = List.length pdus in
    tr.decoded <- tr.decoded + k;
    let batch = List.filter_map (function Pdu.Data d -> Some d | _ -> None) pdus in
    let t1 = Monoclock.now_ns () in
    if k > 1 && List.length batch = k then ignore (Codec.encode_data_batch_v2 batch)
    else List.iter (fun p -> ignore (Codec.encode_v2 p)) pdus;
    tr.encode_ns <- tr.encode_ns + elapsed_ns t1;
    tr.encoded <- tr.encoded + k
  | Error _ -> ());
  [ datagram ]

type pass = {
  latency_ms : Sample.t;  (** Due time to delivery, measured requests. *)
  windows_ms : Sample.t array;
      (** The same samples split by the second the request was due in. *)
  late_ms : Sample.t;  (** Generator lateness, measured requests. *)
  window_s : float;
  window_cpu_s : float;  (** Excluding the host-speed probes. *)
  window_cpu_scaled_s : float;  (** [window_cpu_s] on the nominal host. *)
  window_deliveries : int;
  deliveries : int;
  verdict : Check.verdict;
  misrouted : int;  (** Deliveries whose PDU source disagrees with the id. *)
}

let measure cluster ~filler ~seconds ~tracer =
  let total = int_of_float (rate *. (warmup_s +. seconds)) in
  let first = int_of_float (rate *. warmup_s) in
  let check = Check.create ~n ~capacity:total in
  let latency_ms = Sample.create ((total - first) * n) in
  let per_window = int_of_float rate in
  let windows_ms =
    Array.init ((total - first + per_window - 1) / per_window) (fun _ ->
        Sample.create (per_window * n))
  in
  let late_ms = Sample.create (total - first) in
  let schedule = { Schedule.start = Common.wall () +. 0.05; rate } in
  let deliveries = ref 0 and misrouted = ref 0 in
  for member = 0 to n - 1 do
    let entity = Udp_cluster.entity cluster member in
    Entity.add_observer entity (function
      | Entity.Acknowledged d when d.payload <> "" ->
        let now = Common.wall () in
        let g = request_id d in
        incr deliveries;
        if g >= 0 && d.src <> g mod n then incr misrouted;
        Check.deliver check ~member g;
        if g >= first && g < total then begin
          let ms = (now -. Schedule.due schedule g) *. 1000. in
          Sample.add latency_ms ms;
          Sample.add windows_ms.((g - first) / per_window) ms
        end
      | _ -> ());
    Option.iter
      (fun tr ->
        Common.observe_stages tr.stages ~clock:(fun () -> Common.wall () *. 1000.) entity;
        Entity.add_observer entity (function
          | Entity.Accepted d when d.payload <> "" ->
            let g = request_id d in
            if g >= 0 then
              Sample.add tr.due_to_accept_ms
                ((Common.wall () -. Schedule.due schedule g) *. 1000.)
          | _ -> ()))
      tracer
  done;
  Option.iter (fun tr -> Udp_cluster.set_fault_hook cluster (codec_hook tr)) tracer;
  let in_window = ref false in
  let speed = Hostspeed.create () and next_probe = ref 0. in
  let cpu0 = ref 0. and wall0 = ref 0. and deliv0 = ref 0 in
  let step timeout_s =
    match tracer with
    | None -> ignore (Udp_cluster.step cluster ~timeout_s)
    | Some tr ->
      let c0 = Common.cpu () in
      ignore (Udp_cluster.step cluster ~timeout_s);
      let dc = Common.cpu () -. c0 in
      if !in_window then begin
        Sample.add tr.step_cpu_us (dc *. 1e6);
        tr.step_cpu_s <- tr.step_cpu_s +. dc
      end
  in
  let submit g =
    let msg = payload filler g in
    let src = g mod n in
    match tracer with
    | None -> Udp_cluster.submit cluster ~src msg
    | Some tr ->
      let t0 = Monoclock.now_ns () in
      Udp_cluster.submit cluster ~src msg;
      Sample.add tr.submit_us (float_of_int (elapsed_ns t0) /. 1e3)
  in
  while Check.submitted check < total do
    let g = Check.submitted check in
    let now = Common.wall () in
    if Schedule.due schedule g <= now then begin
      if g = first then begin
        in_window := true;
        cpu0 := Common.cpu ();
        wall0 := now;
        next_probe := now +. probe_interval_s;
        deliv0 := !deliveries
      end;
      if g >= first then Sample.add late_ms (Schedule.lateness_ms schedule g ~now);
      ignore (Check.submit check);
      submit g
    end
    else if !in_window && now >= !next_probe then begin
      Hostspeed.probe speed;
      next_probe := now +. probe_interval_s
    end
    else step (Schedule.due schedule g -. now)
  done;
  let window_s = Common.wall () -. !wall0 in
  let window_cpu_s = Common.cpu () -. !cpu0 -. Hostspeed.cpu_s speed in
  let window_deliveries = !deliveries - !deliv0 in
  in_window := false;
  let deadline = Common.wall () +. drain_s in
  while (not (Check.complete check)) && Common.wall () < deadline do
    step 0.005
  done;
  {
    latency_ms;
    windows_ms;
    late_ms;
    window_s;
    window_cpu_s;
    window_cpu_scaled_s = Hostspeed.scale_cpu speed window_cpu_s;
    window_deliveries;
    deliveries = !deliveries;
    verdict = Check.verdict check;
    misrouted = !misrouted;
  }

let cpu_us_per_delivery p =
  Sample.ratio (p.window_cpu_scaled_s *. 1e6) (float_of_int p.window_deliveries)

let run_pass ~seed ~seconds ~traced =
  let filler = filler ~seed in
  let cluster, setup_s =
    Common.timed_setup ~discard:Udp_cluster.close (fun () ->
        Udp_cluster.create ~seed ~n ())
  in
  let tracer =
    if traced then
      Some
        {
          submit_us = Sample.create 65536;
          step_cpu_us = Sample.create 65536;
          step_cpu_s = 0.;
          due_to_accept_ms = Sample.create 65536;
          stages = Common.stages ();
          decode_ns = 0;
          decoded = 0;
          encode_ns = 0;
          encoded = 0;
        }
    else None
  in
  let pass = measure cluster ~filler ~seconds ~tracer in
  (cluster, setup_s, tracer, pass)

let layer_values cluster tr p ~untraced =
  let metrics = Metrics.create () in
  for i = 0 to n - 1 do
    Metrics.add ~into:metrics (Entity.metrics (Udp_cluster.entity cluster i))
  done;
  let ws = Udp_cluster.wirestats cluster in
  let deliveries = float_of_int p.deliveries in
  let messages = p.verdict.Check.attempted / n in
  let f = float_of_int in
  [
    ("load.late_p99_ms", Sample.percentile p.late_ms 99.);
    ("load.deliveries_per_s", Sample.ratio (f p.window_deliveries) p.window_s);
    ("transport.submit_us_p50", Sample.percentile tr.submit_us 50.);
    ("transport.submit_us_p99", Sample.percentile tr.submit_us 99.);
    ("transport.step_cpu_us_p99", Sample.percentile tr.step_cpu_us 99.);
    ("transport.step_cpu_share", Sample.ratio tr.step_cpu_s p.window_cpu_s);
    ( "transport.datagrams_per_delivery",
      Sample.ratio (f (Udp_cluster.datagrams_sent cluster)) deliveries );
    ("transport.pdus_per_datagram", Wirestats.pdus_per_datagram ws);
    ( "transport.header_bytes_per_delivery",
      Sample.ratio (f (Wirestats.header_bytes ws)) deliveries );
    ("transport.due_to_accept_ms_p50", Sample.percentile tr.due_to_accept_ms 50.);
    ("transport.decode_errors", f (Udp_cluster.decode_errors cluster));
    ("pdu.decode_ns_per_pdu", Sample.ratio (f tr.decode_ns) (f tr.decoded));
    ("pdu.encode_ns_per_pdu", Sample.ratio (f tr.encode_ns) (f tr.encoded));
    ("mem.peak_heap_mb", Common.peak_heap_mb ());
    ( "trace.overhead_ratio",
      Sample.ratio (cpu_us_per_delivery p) (cpu_us_per_delivery untraced) );
  ]
  @ Common.stage_values tr.stages
  @ Common.metrics_per_message metrics ~messages ~deliveries:p.deliveries

(* The tail is the median over one-second windows of each window's p95, so
   one stalled second on a shared host does not set the run's figure. Each
   window holds 16,000 samples, 800 of them beyond its p95. The p99 moved
   between 9.2 and 14 ms from run to run of the same code on a shared host,
   with the stalls of other tenants; it is printed, not gated. *)
let tail_of_windows p q =
  Sample.median
    (Array.to_list (Array.map (fun w -> Sample.percentile w q) p.windows_ms))

let failures p = p.verdict.Check.failed + p.misrouted

let run ~seed ~seconds ~trace =
  (* A traced run splits its time between an untraced and a traced pass. *)
  let seconds = if trace then seconds /. 2. else seconds in
  let cluster, setup_s, _, pass = run_pass ~seed ~seconds ~traced:false in
  Udp_cluster.close cluster;
  let passes, values =
    if trace then begin
      let cluster, _, tracer, traced = run_pass ~seed ~seconds ~traced:true in
      let values = layer_values cluster (Option.get tracer) traced ~untraced:pass in
      Udp_cluster.close cluster;
      ([ pass; traced ], values)
    end
    else
      ( [ pass ],
        [
          ("latency_p50_ms", Sample.percentile pass.latency_ms 50.);
          ("latency_p95_ms", tail_of_windows pass 95.);
          ( "throughput_per_s",
            Sample.ratio (float_of_int pass.window_deliveries) pass.window_s );
          ("cpu_us_per_op", cpu_us_per_delivery pass);
          ("setup_s", setup_s);
        ] )
  in
  let attempted = List.fold_left (fun a p -> a + p.verdict.Check.attempted) 0 passes in
  let failed = min attempted (List.fold_left (fun a p -> a + failures p) 0 passes) in
  {
    Pbench.Report.outcome = { correct = failed = 0; attempted; failed; values };
    params =
      [
        ("n", Jsonx.Int n);
        ("config", Jsonx.String "Config.default");
        ("offered_msgs_per_s", Jsonx.Float rate);
        ("payload_bytes", Jsonx.Int payload_bytes);
        ("sources", Jsonx.String "round-robin");
        ("warmup_s", Jsonx.Float warmup_s);
        ("drain_s", Jsonx.Float drain_s);
        ("latency_samples", Jsonx.Int (Sample.length pass.latency_ms));
      ];
    network = "loopback";
    repetitions = List.length passes;
    notes =
      Printf.sprintf
        "latency over 1 s windows, median of the windows: p95 %.3f ms, p99 \
         %.3f ms; CPU per delivery %.3f us as measured, %.3f us on the \
         nominal host"
        (tail_of_windows pass 95.) (tail_of_windows pass 99.)
        (Sample.ratio (pass.window_cpu_s *. 1e6) (float_of_int pass.window_deliveries))
        (cpu_us_per_delivery pass)
      :: List.map
        (fun p ->
          let v = p.verdict in
          Printf.sprintf
            "delivery check: %d expected, %d duplicate, %d out of order, %d \
             causal, %d unknown, %d misrouted, %d missing; window %.3f s, \
             late p99 %.3f ms"
            v.Check.attempted v.duplicates v.out_of_order v.causal v.unknown
            p.misrouted v.missing p.window_s (Sample.percentile p.late_ms 99.))
        passes;
  }
