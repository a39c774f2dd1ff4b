(** External checker for a causal broadcast's delivery stream.

    Message [g] is the [g]-th request of a round-robin load: it is sent by
    source [g mod n] and is that source's [(g / n)]-th message. The checker
    sees only what an application sees — request ids at submit, and
    [(member, id)] at delivery — and verifies:

    - exactly-once delivery: a second delivery of [g] at a member is a
      duplicate, and any [(g, member)] still undelivered at {!verdict} is
      missing;
    - per-source FIFO order: [g] must be the next undelivered message of its
      source at that member;
    - causal order: at submit, the checker records the sender's delivered
      prefix of every source, and each delivery of [g] must find the
      member's prefixes at least as long.

    Bookkeeping is O(n) per delivery over preallocated arrays, so it can run
    inside the process whose CPU the benchmark measures. *)

type t

val create : n:int -> capacity:int -> t
(** Room for [capacity] messages over [n] members. *)

val submit : t -> int
(** Record the next request and return its id. Call just before handing the
    request to the system, so the recorded prefix is one the sender had
    really delivered. @raise Invalid_argument beyond [capacity]. *)

val deliver : t -> member:int -> int -> unit
(** Record a delivery of message id at [member]. Ids that were never
    submitted count as unknown. *)

val submitted : t -> int

val complete : t -> bool
(** Every submitted message has been delivered at every member. *)

type verdict = {
  attempted : int;  (** Expected deliveries: submitted messages × members. *)
  duplicates : int;
  out_of_order : int;  (** Deliveries ahead of an earlier same-source one. *)
  causal : int;  (** Deliveries ahead of a recorded causal predecessor. *)
  unknown : int;  (** Deliveries of ids never submitted. *)
  missing : int;
  failed : int;
      (** Deliveries flagged by any check, plus missing ones, capped at
          [attempted]. *)
}

val verdict : t -> verdict
