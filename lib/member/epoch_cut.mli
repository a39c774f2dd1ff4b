(** The epoch cut: how one view's entities become the next view's.

    Every host that commits a membership change — {!Group} over the
    simulated medium, the UDP transport, the model checker — closes the
    epoch at a reconciled REQ cut and rebuilds each member of the next
    view from a [co-checkpoint-v1] bootstrap blob. This module is that
    translation, so a fix to it reaches every host:

    - the rank map between the closing and the next view;
    - the next view's REQ baseline (a survivor's column carries over, a
      joiner's starts at 1) and the accepted-header table, re-homed into
      the new rank space (only the sub-cut history of surviving sources
      crosses);
    - the per-epoch {!Repro_core.Config.t}, under {!epoch_cid};
    - the bootstrap blob for each new rank — a joiner takes its sponsor's
      (the lowest-ranked survivor's) state as basis;
    - restoring a blob, or failing loudly. *)

val epoch_cid : cid:int -> epoch:int -> int
(** The effective cluster id of an epoch: injective in [(cid, epoch)] for
    [epoch < 2^20], so the entity's receive-path cid guard is exactly the
    epoch guard. *)

val config : base:Repro_core.Config.t -> epoch:int -> Repro_core.Config.t
(** [base] under epoch [epoch]'s cid, with [Config.epoch = epoch]. *)

type t

val make :
  base:Repro_core.Config.t -> closing:View.t -> next:View.t -> req:int array -> t
(** The cut from [closing] to [next] at the reconciled REQ vector [req]
    (indexed by closing rank). *)

(** A change in a rank-only host, which has no global node ids: [Join]
    adds the next view's last rank, [Leave l] removes rank [l] and shifts
    the ranks above it down. *)
type change = Join | Leave of int

val in_rank_space :
  base:Repro_core.Config.t ->
  epoch:int ->
  n:int ->
  change ->
  req:int array ->
  t
(** {!make} for a closing view of [n] ranks at [epoch] whose node ids are
    its ranks. @raise Invalid_argument if the change does not apply (a
    leave out of range or one that would shrink the view below 2). *)

val size : t -> int
(** Members of the next view. *)

val source : t -> int -> int option
(** The closing rank a next-view rank survives from; [None] for a
    joiner. *)

val blob : t -> rank:int -> basis:Repro_core.Entity.t -> string
(** The bootstrap blob for next-view [rank], with the accepted headers of
    the closing-epoch entity [basis] (the member's own entity, or the
    sponsor's for a joiner). Every survivor computes the same REQ baseline,
    so a joiner restores the bytes its sponsor builds. *)

val restore :
  config:Repro_core.Config.t ->
  rank:int ->
  n:int ->
  actions:Repro_core.Entity.actions ->
  string ->
  Repro_core.Entity.t
(** Restore a bootstrap blob as rank [rank] of an [n]-member view.
    @raise Failure naming the rank and epoch if the blob is rejected. *)

val rebuild :
  ?telemetry:Repro_core.Telemetry.t ->
  t ->
  old:Repro_core.Entity.t array ->
  (rank:int -> (Repro_core.Entity.actions -> Repro_core.Entity.t) -> 'a) ->
  'a array
(** Rebuild the whole next view in-process from the closing view's
    entities [old] (indexed by closing rank). For each next rank in
    ascending order, [host ~rank restore] builds the rank's actions and
    calls [restore] on them, which restores the rank's {!blob} (a joiner's
    from the sponsor's basis). [telemetry] starts a new epoch first
    ({!Repro_core.Telemetry.new_epoch}): new-epoch PDUs reuse [(src, seq)]
    keys and must not inherit the closed epoch's send stamps. *)
