module Prng = Repro_util.Prng
module Simtime = Repro_sim.Simtime
module Pdu = Repro_pdu.Pdu
module Codec = Repro_pdu.Codec
module Engine = Repro_sim.Engine
module Network = Repro_sim.Network

module Config = Repro_core.Config

type t = {
  n : int;
  wire : Config.wire_version;
  rng : Prng.t;
  down : bool array;
  mutable group : int array option;  (** group id per entity; -1 = isolated *)
  mutable loss : float;
  mutable corrupt : float;
  mutable duplicate : float;
  stall : int array;
  mutable crash_drops : int;
  mutable partition_drops : int;
  mutable loss_drops : int;
  mutable corrupt_dropped : int;
  mutable corrupt_passed : int;
  mutable duplicated : int;
}

type stats = {
  crash_drops : int;
  partition_drops : int;
  loss_drops : int;
  corrupt_dropped : int;
  corrupt_passed : int;
  duplicated : int;
}

let create ?(wire = Config.default.Config.wire) ~n ~seed () =
  if n < 2 then invalid_arg "Injector.create: n must be >= 2";
  {
    n;
    wire;
    rng = Prng.create ~seed:(seed lxor 0xfa017);
    down = Array.make n false;
    group = None;
    loss = 0.;
    corrupt = 0.;
    duplicate = 0.;
    stall = Array.make n 1;
    crash_drops = 0;
    partition_drops = 0;
    loss_drops = 0;
    corrupt_dropped = 0;
    corrupt_passed = 0;
    duplicated = 0;
  }

let n t = t.n

let apply t action =
  match (action : Plan.action) with
  | Crash e -> t.down.(e) <- true
  | Restart e -> t.down.(e) <- false
  | Partition groups ->
    let g = Array.make t.n (-1) in
    List.iteri (fun gi members -> List.iter (fun e -> g.(e) <- gi) members) groups;
    t.group <- Some g
  | Heal -> t.group <- None
  | Loss p -> t.loss <- p
  | Corrupt p -> t.corrupt <- p
  | Duplicate p -> t.duplicate <- p
  | Stall { entity; factor } -> t.stall.(entity) <- factor
  | Unstall e -> t.stall.(e) <- 1
  (* Membership is the host's job (see [schedule]); the medium itself is
     unaffected. *)
  | Join _ | Leave _ -> ()

let is_down t e = t.down.(e)

let stats (t : t) : stats =
  {
    crash_drops = t.crash_drops;
    partition_drops = t.partition_drops;
    loss_drops = t.loss_drops;
    corrupt_dropped = t.corrupt_dropped;
    corrupt_passed = t.corrupt_passed;
    duplicated = t.duplicated;
  }

let faults_active t =
  Array.exists Fun.id t.down
  || t.group <> None
  || t.loss > 0.
  || t.corrupt > 0.
  || t.duplicate > 0.
  || Array.exists (fun f -> f > 1) t.stall

let separated t src dst =
  match t.group with
  | None -> false
  | Some g -> g.(src) < 0 || g.(dst) < 0 || g.(src) <> g.(dst)

let member t e = e >= 0 && e < t.n

(* The shared verdict: which fault, if any, claims this copy. Draws are
   made in a fixed order so a (plan, seed) pair replays identically. A
   copy from or to a non-member (an external datagram sender, [src = -1])
   is no fault's business: it passes untouched and draws nothing. Drops
   and duplicates are counted here, corruption by the caller that renders
   it. *)
type verdict = Drop | Corrupted | Pass of int

let verdict t ~dst ~src =
  if not (member t src && member t dst) then Pass 1
  else if t.down.(src) || t.down.(dst) then begin
    t.crash_drops <- t.crash_drops + 1;
    Drop
  end
  else if separated t src dst then begin
    t.partition_drops <- t.partition_drops + 1;
    Drop
  end
  else if t.loss > 0. && Prng.bernoulli t.rng ~p:t.loss then begin
    t.loss_drops <- t.loss_drops + 1;
    Drop
  end
  else if t.corrupt > 0. && Prng.bernoulli t.rng ~p:t.corrupt then Corrupted
  else if t.duplicate > 0. && Prng.bernoulli t.rng ~p:t.duplicate then begin
    t.duplicated <- t.duplicated + 1;
    Pass 2
  end
  else Pass 1

let flip_random_bit t bytes =
  let bytes = Bytes.copy bytes in
  let nbits = 8 * Bytes.length bytes in
  if nbits > 0 then begin
    let bit = Prng.int t.rng nbits in
    let byte = bit / 8 in
    Bytes.set bytes byte
      (Char.chr (Char.code (Bytes.get bytes byte) lxor (1 lsl (bit mod 8))))
  end;
  bytes

let on_pdu t ~dst ~src pdu =
  match verdict t ~dst ~src with
  | Drop -> []
  | Corrupted -> begin
    (* Round-trip through the wire format with one bit flipped: the
       codec's checksum is what stands between a flipped bit and the
       protocol, so let it render the verdict. The frame matches the
       configured wire version; decoding dispatches on the version byte
       as the real ingress path does. *)
    match
      Codec.decode_any (flip_random_bit t (Repro_core.Wire.frame t.wire pdu))
    with
    | Error _ ->
      t.corrupt_dropped <- t.corrupt_dropped + 1;
      []
    | Ok mangled ->
      t.corrupt_passed <- t.corrupt_passed + 1;
      mangled
  end
  | Pass k -> List.init k (Fun.const pdu)

let on_datagram t ~dst ~src bytes =
  match verdict t ~dst ~src with
  | Drop -> []
  | Corrupted ->
    (* Hand the mangled datagram through: the receiver's decode path is
       expected to reject it (counted there as a decode error). *)
    t.corrupt_dropped <- t.corrupt_dropped + 1;
    [ flip_random_bit t bytes ]
  | Pass k -> List.init k (Fun.const bytes)

let on_copy t ~dst ~src x =
  match verdict t ~dst ~src with
  | Drop -> []
  | Corrupted ->
    (* An opaque payload can't be bit-flipped-and-redecoded here; model the
       receiver's shape check rejecting the mangled copy. *)
    t.corrupt_dropped <- t.corrupt_dropped + 1;
    []
  | Pass k -> List.init k (Fun.const x)

let service_delay t ~dst d = d * t.stall.(dst)

let install t net hook =
  Network.set_fault_hook net (hook t);
  Network.set_service_hook net (service_delay t)

let schedule t engine (plan : Plan.t) ~host =
  List.iter
    (fun { Plan.at; action } ->
      Engine.schedule engine ~at (fun () ->
          (* Medium first: a restarted entity's recovery CTL must find
             its NIC back up. *)
          apply t action;
          host action))
    plan.Plan.events

let pp_stats ppf s =
  Format.fprintf ppf
    "drops(crash/part/loss)=%d/%d/%d corrupt(rejected/passed)=%d/%d dup=%d"
    s.crash_drops s.partition_drops s.loss_drops s.corrupt_dropped
    s.corrupt_passed s.duplicated
