type t = {
  n : int;
  capacity : int;
  deps : int array;  (** [g * n + s]: the sender's prefix of [s] at submit. *)
  seen : Bytes.t;  (** [g * n + member]: delivered flag. *)
  prefix : int array;
      (** [member * n + s]: how many of [s]'s messages [member] has
          delivered without a gap. *)
  mutable submitted : int;
  mutable delivered : int;
  mutable duplicates : int;
  mutable out_of_order : int;
  mutable causal : int;
  mutable unknown : int;
}

let create ~n ~capacity =
  {
    n;
    capacity;
    deps = Array.make (capacity * n) 0;
    seen = Bytes.make (capacity * n) '\000';
    prefix = Array.make (n * n) 0;
    submitted = 0;
    delivered = 0;
    duplicates = 0;
    out_of_order = 0;
    causal = 0;
    unknown = 0;
  }

let submit t =
  let g = t.submitted in
  if g >= t.capacity then invalid_arg "Delivery_check.submit: over capacity";
  Array.blit t.prefix (g mod t.n * t.n) t.deps (g * t.n) t.n;
  t.submitted <- g + 1;
  g

let seen t g member = Bytes.unsafe_get t.seen ((g * t.n) + member) <> '\000'

let deliver t ~member g =
  let n = t.n in
  if g < 0 || g >= t.submitted then t.unknown <- t.unknown + 1
  else if seen t g member then t.duplicates <- t.duplicates + 1
  else begin
    Bytes.unsafe_set t.seen ((g * n) + member) '\001';
    t.delivered <- t.delivered + 1;
    let src = g mod n and k = g / n in
    let row = member * n in
    if k <> t.prefix.(row + src) then t.out_of_order <- t.out_of_order + 1
    else begin
      let s = ref 0 in
      while !s < n && t.prefix.(row + !s) >= t.deps.((g * n) + !s) do
        incr s
      done;
      if !s < n then t.causal <- t.causal + 1
    end;
    (* Advance the gap-free prefix over everything already delivered. *)
    let p = ref t.prefix.(row + src) in
    while ((!p * n) + src) < t.submitted && seen t ((!p * n) + src) member do
      incr p
    done;
    t.prefix.(row + src) <- !p
  end

let submitted t = t.submitted
let complete t = t.delivered = t.submitted * t.n

type verdict = {
  attempted : int;
  duplicates : int;
  out_of_order : int;
  causal : int;
  unknown : int;
  missing : int;
  failed : int;
}

let verdict t =
  let attempted = t.submitted * t.n in
  let missing = attempted - t.delivered in
  {
    attempted;
    duplicates = t.duplicates;
    out_of_order = t.out_of_order;
    causal = t.causal;
    unknown = t.unknown;
    missing;
    failed =
      min attempted
        (t.duplicates + t.out_of_order + t.causal + t.unknown + missing);
  }
