(* Clocks and helpers shared by the workloads. *)

let wall = Repro_util.Monoclock.now_s

(* Process CPU time, user plus system. *)
let cpu = Sys.time

(* Workloads without system calls of their own run under
   [Pbench.Hostspeed.during] with a probe this often. *)
let probe_every_s = 0.005

(* [f ()] again and again for [seconds]: at least once, and again only while
   another round as long as the last would end by the deadline, so a run
   does not overrun by most of a long repetition. *)
let repeat ~seconds f =
  let deadline = wall () +. seconds in
  let rec go acc =
    let t0 = wall () in
    let acc = f () :: acc in
    let now = wall () in
    if now +. (now -. t0) <= deadline then go acc else List.rev acc
  in
  go []

(* Set-up is timed in batches: a batch runs [f] [batch] times back to back,
   so a set-up of a microsecond is not timed at the clock's grain. Batches
   repeat at least [setup_reps] times
   and for at least [setup_min_s]; [setup_s] is the median time per call,
   scaled to the nominal host, so one slow socket bind or page-fault burst
   does not move it. Each batch starts after a full major collection, so it
   does not pay for the garbage of the one before, and after a host-speed
   probe. [discard] releases every result but the last, outside the
   timer. *)
let setup_reps = 21
let setup_min_s = 0.25

let timed_setup ?(discard = ignore) ?(batch = 1) f =
  let speed = Pbench.Hostspeed.create () in
  let times = ref [] and until = wall () +. setup_min_s in
  let rec go i =
    Gc.full_major ();
    Pbench.Hostspeed.probe speed;
    let t0 = wall () in
    let xs = List.init batch (fun _ -> f ()) in
    times := ((wall () -. t0) /. float_of_int batch) :: !times;
    let x = List.hd xs in
    List.iter discard (List.tl xs);
    if i >= setup_reps && wall () >= until then x
    else begin
      discard x;
      go (i + 1)
    end
  in
  let x = go 1 in
  (x, Pbench.Hostspeed.scale speed (Pbench.Sample.median !times))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1_048_576.

let metrics_per_message (m : Repro_core.Metrics.t) ~messages ~deliveries =
  let per_msg x = Pbench.Sample.ratio (float_of_int x) (float_of_int messages) in
  Repro_core.Metrics.
    [
      ("core.pdus_per_message", per_msg (total_pdus_sent m));
      ("core.ctl_per_message", per_msg m.ctl_sent);
      ("core.confirmations_per_message", per_msg m.confirmations_sent);
      ( "core.duplicates_per_delivery",
        Pbench.Sample.ratio (float_of_int m.duplicates) (float_of_int deliveries)
      );
      ("core.retransmitted_per_message", per_msg m.retransmitted);
      ( "core.cpi_fastpath_ratio",
        Pbench.Sample.ratio (float_of_int m.cpi_fastpath) (float_of_int m.accepted)
      );
      ("core.flow_blocked_ratio", per_msg m.flow_blocked);
      ("core.peak_buffered", float_of_int m.peak_buffered);
    ]

(* Receipt-ladder stage times of data PDUs, stamped from entity observer
   events against [clock] (milliseconds): acceptance to pre-acknowledgment
   and pre-acknowledgment to acknowledgment, the two deferred-confirmation
   rounds. *)
type stages = {
  accept_to_preack : Pbench.Sample.t;
  preack_to_ack : Pbench.Sample.t;
}

let stages () =
  { accept_to_preack = Pbench.Sample.create 4096; preack_to_ack = Pbench.Sample.create 4096 }

let observe_stages st ~clock entity =
  let accepted = Hashtbl.create 1024 and preacked = Hashtbl.create 1024 in
  let module Entity = Repro_core.Entity in
  let lap table key into now =
    match Hashtbl.find_opt table key with
    | Some t0 ->
      Hashtbl.remove table key;
      Pbench.Sample.add into (now -. t0)
    | None -> ()
  in
  Entity.add_observer entity (function
    | Entity.Accepted d when d.payload <> "" ->
      Hashtbl.replace accepted (d.src, d.seq) (clock ())
    | Entity.Preacknowledged d when d.payload <> "" ->
      let now = clock () in
      lap accepted (d.src, d.seq) st.accept_to_preack now;
      Hashtbl.replace preacked (d.src, d.seq) now
    | Entity.Acknowledged d when d.payload <> "" ->
      lap preacked (d.src, d.seq) st.preack_to_ack (clock ())
    | _ -> ())

let stage_values st =
  [
    ("core.accept_to_preack_ms_p50", Pbench.Sample.percentile st.accept_to_preack 50.);
    ("core.preack_to_ack_ms_p50", Pbench.Sample.percentile st.preack_to_ack 50.);
  ]
