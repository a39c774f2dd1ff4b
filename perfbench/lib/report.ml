module Jsonx = Repro_analysis.Jsonx

type metric = { name : string; unit : string }

type spec = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Ok (really_input_string ic (in_channel_length ic)))

let load_spec path =
  let ( let* ) = Result.bind in
  let* text = read_file path in
  let* json = Jsonx.of_string text in
  let field key obj =
    match Option.bind (Jsonx.member key obj) Jsonx.string_value with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: entry without a string %S" path key)
  in
  let list key f =
    match Jsonx.member key json with
    | None -> Error (Printf.sprintf "%s: no %S list" path key)
    | Some l ->
      List.fold_right
        (fun x acc ->
          let* acc = acc in
          let* v = f x in
          Ok (v :: acc))
        (Jsonx.to_list l) (Ok [])
  in
  let metric x =
    let* name = field "name" x in
    let* unit = field "unit" x in
    Ok { name; unit }
  in
  let* workloads = list "workloads" (field "name") in
  let* end_to_end = list "end_to_end" metric in
  let* per_layer = list "per_layer" metric in
  Ok { workloads; end_to_end; per_layer }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

type run = {
  outcome : outcome;
  params : (string * Jsonx.t) list;
  network : string;
  repetitions : int;
  notes : string list;
}

let metrics spec ~trace outcome =
  let known m = List.exists (fun k -> k.name = m) (spec.end_to_end @ spec.per_layer) in
  let wanted = if trace then spec.per_layer else spec.end_to_end in
  match List.find_opt (fun (name, _) -> not (known name)) outcome.values with
  | Some (name, _) -> Error ("metric not in BENCHMARK.json: " ^ name)
  | None ->
    List.fold_right
      (fun m acc ->
        Result.bind acc (fun acc ->
            match List.assoc_opt m.name outcome.values with
            | Some v when Float.is_finite v -> Ok ((m, v) :: acc)
            | Some v -> Error (Printf.sprintf "%s is %h" m.name v)
            | None when trace -> Ok ((m, 0.) :: acc)
            | None -> Error ("end-to-end metric not measured: " ^ m.name)))
      wanted (Ok [])

let result_line outcome metrics =
  Jsonx.to_string ~indent:false
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool outcome.correct);
         ("attempted", Jsonx.Int outcome.attempted);
         ("failed", Jsonx.Int outcome.failed);
         ( "metrics",
           Jsonx.Obj
             (List.map
                (fun (m, v) ->
                  ( m.name,
                    Jsonx.Obj
                      [ ("value", Jsonx.Float v); ("unit", Jsonx.String m.unit) ]
                  ))
                metrics) );
       ])

(* The checkout the benchmark runs in may not be a git repository; read the
   revision straight from [.git] when it is, without running git. *)
let git_rev () =
  let line path =
    match read_file path with
    | Ok s -> Some (String.trim s)
    | Error _ -> None
  in
  match line ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_name = String.sub head 5 (String.length head - 5) in
    match line (Filename.concat ".git" ref_name) with
    | Some rev -> rev
    | None -> (
      match read_file ".git/packed-refs" with
      | Error _ -> "unknown"
      | Ok packed ->
        String.split_on_char '\n' packed
        |> List.find_map (fun l ->
               match String.split_on_char ' ' l with
               | [ rev; r ] when r = ref_name -> Some rev
               | _ -> None)
        |> Option.value ~default:"unknown"))
  | Some rev -> rev
  | None -> "unknown"

let provenance ~seed ~workload ~params ~network ~seconds ~trace ~runs =
  Jsonx.Obj
    [
      ("git_rev", Jsonx.String (git_rev ()));
      ("ocaml", Jsonx.String Sys.ocaml_version);
      ("nproc", Jsonx.Int (Domain.recommended_domain_count ()));
      ("seed", Jsonx.Int seed);
      ("workload", Jsonx.String workload);
      ("params", Jsonx.Obj params);
      ("network", Jsonx.String network);
      ("run_seconds", Jsonx.Int seconds);
      ("trace", Jsonx.Bool trace);
      ("repetitions", Jsonx.Int runs);
    ]
