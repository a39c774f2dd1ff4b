type span = {
  entity : int;
  incarnation : int;
  src : int;
  seq : int;
  trace_id : int64;
  t_send : int;
  t_recv : int;
  parked : bool;
  t_accept : int;
  t_preack : int;
  t_deliver : int;
}

(* splitmix64 finalizer: full-avalanche 64-bit mix, the same construction
   Prng is built on, so ids inherit its distribution quality. *)
let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let id ~salt ~src ~seq =
  (* (src, seq) packed injectively: seq is bounded far below 2^48. *)
  let key = Int64.of_int ((src lsl 48) lxor seq) in
  mix64 (Int64.add salt (mix64 key))

let salt_of_seed ~seed =
  let g = Repro_util.Prng.split (Repro_util.Prng.create ~seed) in
  Repro_util.Prng.bits64 g

(* A span under construction. -1 marks a stamp not yet taken. *)
type partial = {
  mutable p_recv : int;
  mutable p_parked : bool;
  mutable p_accept : int;
  mutable p_preack : int;
}

type t = {
  salt : int64;
  send_at : (int * int, int) Hashtbl.t; (* (src, seq) -> first send *)
  partials : (int * int * int, partial) Hashtbl.t; (* (entity, src, seq) *)
  incarnation : (int, int) Hashtbl.t; (* entity -> current incarnation *)
  mutable rev_spans : span list;
  mutable count : int;
  mutable abandoned : int;
  mutable incomplete : int;
}
[@@coaudit.allow
  "per-run trace recorder: owned by one cluster, stamped from its \
   single-threaded probe callbacks"]

let create ~salt () =
  {
    salt;
    send_at = Hashtbl.create 1024;
    partials = Hashtbl.create 1024;
    incarnation = Hashtbl.create 8;
    rev_spans = [];
    count = 0;
    abandoned = 0;
    incomplete = 0;
  }

let salt t = t.salt

let incarnation_of t entity =
  match Hashtbl.find_opt t.incarnation entity with Some i -> i | None -> 0

let on_send t ~src ~seq ~now =
  let key = (src, seq) in
  if not (Hashtbl.mem t.send_at key) then Hashtbl.add t.send_at key now

let partial_of t key =
  match Hashtbl.find_opt t.partials key with
  | Some p -> p
  | None ->
    let p = { p_recv = -1; p_parked = false; p_accept = -1; p_preack = -1 } in
    Hashtbl.add t.partials key p;
    p

let on_receive t ~entity ~src ~seq ~now =
  let p = partial_of t (entity, src, seq) in
  if p.p_recv < 0 then p.p_recv <- now

let on_park t ~entity ~src ~seq =
  (match Hashtbl.find_opt t.partials (entity, src, seq) with
  | Some p -> p.p_parked <- true
  | None ->
    let p = partial_of t (entity, src, seq) in
    p.p_parked <- true)

let on_accept t ~entity ~src ~seq ~now =
  let p = partial_of t (entity, src, seq) in
  if p.p_accept < 0 then p.p_accept <- now

let on_preack t ~entity ~src ~seq ~now =
  let p = partial_of t (entity, src, seq) in
  if p.p_preack < 0 then p.p_preack <- now

let on_deliver t ~entity ~src ~seq ~now =
  match Hashtbl.find_opt t.partials (entity, src, seq) with
  | None -> t.incomplete <- t.incomplete + 1
  | Some p ->
    Hashtbl.remove t.partials (entity, src, seq);
    (match Hashtbl.find_opt t.send_at (src, seq) with
    | None -> t.incomplete <- t.incomplete + 1
    | Some t_send ->
      if p.p_recv < 0 || p.p_accept < 0 || p.p_preack < 0 then
        t.incomplete <- t.incomplete + 1
      else begin
        let span =
          {
            entity;
            incarnation = incarnation_of t entity;
            src;
            seq;
            trace_id = id ~salt:t.salt ~src ~seq;
            t_send;
            t_recv = p.p_recv;
            parked = p.p_parked;
            t_accept = p.p_accept;
            t_preack = p.p_preack;
            t_deliver = now;
          }
        in
        t.rev_spans <- span :: t.rev_spans;
        t.count <- t.count + 1
      end)

let abandon_entity t ~entity =
  let stale =
    Hashtbl.fold
      (fun ((e, _, _) as key) _ acc -> if e = entity then key :: acc else acc)
      t.partials []
  in
  List.iter
    (fun key ->
      Hashtbl.remove t.partials key;
      t.abandoned <- t.abandoned + 1)
    stale;
  Hashtbl.replace t.incarnation entity (incarnation_of t entity + 1)

let new_epoch t =
  Hashtbl.reset t.send_at;
  Hashtbl.reset t.partials

let spans t = List.rev t.rev_spans
let span_count t = t.count
let abandoned t = t.abandoned
let incomplete t = t.incomplete
let open_count t = Hashtbl.length t.partials
