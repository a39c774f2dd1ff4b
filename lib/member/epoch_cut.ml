module Config = Repro_core.Config
module Entity = Repro_core.Entity
module Telemetry = Repro_core.Telemetry

(* Effective cluster id of one epoch. Injective in (cid, epoch) for
   epoch < 2^20, and never 0-colliding with a different base cid, so the
   entity's receive-path cid guard is exactly the epoch guard. *)
let epoch_cid ~cid ~epoch = (cid lsl 20) lor (epoch + 1)

let config ~base ~epoch =
  { base with Config.cid = epoch_cid ~cid:base.Config.cid ~epoch; epoch }

type t = {
  next : View.t;
  source : int array; (* next rank -> closing rank, -1 for a joiner *)
  target : int array; (* closing rank -> next rank, -1 for a departed one *)
  req : int array; (* the reconciled REQ cut, by closing rank *)
  config : Config.t; (* the next epoch's *)
}

let make ~base ~closing ~next ~req =
  let n_new = View.size next in
  let source =
    Array.init n_new (fun r ->
        Option.value ~default:(-1) (View.rank_map ~closing ~next r))
  in
  let target = Array.make (View.size closing) (-1) in
  Array.iteri (fun r o -> if o >= 0 then target.(o) <- r) source;
  { next; source; target; req; config = config ~base ~epoch:next.View.epoch }

type change = Join | Leave of int

let in_rank_space ~base ~epoch ~n change ~req =
  let closing = { View.epoch; members = Array.init n Fun.id } in
  let change =
    match change with
    | Join -> Repro_pdu.Memberwire.Join n
    | Leave l -> Repro_pdu.Memberwire.Leave l
  in
  match View.apply closing change with
  | Ok next -> make ~base ~closing ~next ~req
  | Error e -> invalid_arg ("Epoch_cut.in_rank_space: " ^ e)

let size t = View.size t.next
let source t r = if t.source.(r) >= 0 then Some t.source.(r) else None

(* REQ carries over per surviving source (a joiner's column starts at 1),
   and the accepted-header table is re-homed the same way so
   Transitive-mode reach computation keeps terminating across the cut. *)
let blob t ~rank ~basis =
  let remap v =
    Array.map (fun o -> if o >= 0 then v.(o) else 1) t.source
  in
  let headers =
    (* Quiesced entities keep confirming while the coordinator converges,
       so the table can hold entries at or above the cut — empty sequenced
       confirmations the commit uniformly forgets (every member restarts
       from the same REQ, and senders reuse those numbers in the new
       epoch). Only the sub-cut history crosses the boundary. *)
    List.filter_map
      (fun (src, seq, ack) ->
        if t.target.(src) >= 0 && seq < t.req.(src) then
          Some (t.target.(src), seq, remap ack)
        else None)
      (Entity.header_entries basis)
  in
  Entity.bootstrap_checkpoint ~config:t.config ~id:rank ~n:(size t)
    ~req:(remap t.req) ~headers

let restore ~config ~rank ~n ~actions blob =
  match Entity.restore ~expect_id:rank ~expect_n:n ~config ~actions blob with
  | Ok e -> e
  | Error err ->
    failwith
      (Format.asprintf "Epoch_cut: rank %d rejected the epoch-%d bootstrap: %a"
         rank config.Config.epoch Entity.pp_restore_error err)

let rebuild ?telemetry t ~old host =
  Option.iter Telemetry.new_epoch telemetry;
  (* The sponsor is the lowest-ranked survivor; a joiner restores the very
     bytes it would build for the joiner's rank. *)
  let sponsor =
    Array.fold_left (fun acc o -> if acc < 0 then o else acc) (-1) t.source
  in
  Array.init (size t) (fun rank ->
      let basis =
        old.(if t.source.(rank) >= 0 then t.source.(rank) else sponsor)
      in
      let blob = blob t ~rank ~basis in
      host ~rank (fun actions ->
          restore ~config:t.config ~rank ~n:(size t) ~actions blob))
