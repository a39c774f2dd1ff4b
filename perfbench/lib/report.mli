(** The benchmark's contract file and its output, both through
    {!Repro_analysis.Jsonx}. *)

type metric = { name : string; unit : string }

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

val load_spec : string -> (spec, string) result
(** Read the workload and metric names from a [BENCHMARK.json]. *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;  (** Metric name to measured value. *)
}

(** What one workload run hands back for printing. *)
type run = {
  outcome : outcome;
  params : (string * Repro_analysis.Jsonx.t) list;  (** Workload parameters. *)
  network : string;  (** Path the traffic took, for {!provenance}. *)
  repetitions : int;  (** Measured passes, experiments or explorations. *)
  notes : string list;  (** Human-readable detail lines. *)
}

val metrics : spec -> trace:bool -> outcome -> ((metric * float) list, string) result
(** The metric set the run must print: every end-to-end metric of [spec]
    when [trace] is false, every per-layer one when true, in [spec] order.
    An end-to-end metric the workload did not produce is an error; a
    per-layer metric it did not produce reads [0.] — that layer is not on
    this workload's path. A value named in neither list, or a non-finite
    value, is an error. *)

val result_line : outcome -> (metric * float) list -> string
(** The one-line JSON result: [correct], [attempted], [failed] and
    [metrics] as [{name: {value, unit}}]. *)

val provenance :
  seed:int ->
  workload:string ->
  params:(string * Repro_analysis.Jsonx.t) list ->
  network:string ->
  seconds:int ->
  trace:bool ->
  runs:int ->
  Repro_analysis.Jsonx.t
(** What a reader needs to compare two outputs: revision (from [.git] when
    the run is inside a git checkout, else ["unknown"]), OCaml version,
    processor count, seed, workload parameters, the path traffic took
    ([network]: ["loopback"] for real sockets on this host), run length,
    and how many repetitions the run measured. *)
