(* The reference kernel: lookups in a small prebuilt hash table, through
   the polymorphic hash and compare, the kind of branchy, call-heavy code
   the program runs. Of the kernels tried (random access to a table the
   size of L2, sequential sweeps through memory, allocation in another
   process, system calls), it tracked the workloads' slowdowns best: the
   ratio of an exploration's time to a pass varied 1.8-2.8% between the
   explorations of a run where the raw time varied 5.6-8.9%, and the UDP
   cluster's CPU per delivery over one-second windows 3.8-5.8% where the
   raw figure varied 5.9-7.9%. It allocates nothing, so the program's
   garbage collector never runs inside it, and its table of 1,024 entries
   is too small to change the program's collections. *)
let table_size = 1024
let table =
  let h = Hashtbl.create table_size in
  for i = 0 to table_size - 1 do
    Hashtbl.replace h i (i * 7)
  done;
  h

let lookups = 7_500
let sink = ref 0

let kernel () =
  let acc = ref 0 in
  for i = 1 to lookups do
    acc := !acc + Hashtbl.find table ((i * 37) land (table_size - 1))
  done;
  sink := !sink + !acc

let nominal_s = 2.5e-4

type t = { mutable passes : int; mutable wall_s : float; mutable cpu_s : float }

let create () = { passes = 0; wall_s = 0.; cpu_s = 0. }

let probe t =
  let c0 = Sys.time () in
  let w0 = Repro_util.Monoclock.now_ns () in
  kernel ();
  let w1 = Repro_util.Monoclock.now_ns () in
  t.cpu_s <- t.cpu_s +. (Sys.time () -. c0);
  t.wall_s <- t.wall_s +. (Int64.to_float (Int64.sub w1 w0) *. 1e-9);
  t.passes <- t.passes + 1

let passes t = t.passes
let wall_s t = t.wall_s
let cpu_s t = t.cpu_s

let per_pass total t =
  if t.passes = 0 || total <= 0. then nominal_s else total /. float_of_int t.passes

let scale t seconds = seconds *. nominal_s /. per_pass t.wall_s t
let scale_cpu t seconds = seconds *. nominal_s /. per_pass t.cpu_s t

let during t ~every f =
  let arm v = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v }) in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe t)) in
  arm every;
  Fun.protect
    ~finally:(fun () ->
      arm 0.;
      Sys.set_signal Sys.sigalrm previous)
    f
