type t = { mutable data : Float.Array.t; mutable len : int }

let create capacity = { data = Float.Array.create (max 16 capacity); len = 0 }

let add t x =
  if t.len = Float.Array.length t.data then begin
    let bigger = Float.Array.create (2 * t.len) in
    Float.Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  Float.Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let length t = t.len

let nearest_rank sorted q =
  let n = Float.Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (q /. 100. *. float_of_int n)) in
    Float.Array.get sorted (max 0 (min (n - 1) (rank - 1)))

let percentiles t qs =
  let sorted = Float.Array.sub t.data 0 t.len in
  Float.Array.sort Float.compare sorted;
  List.map (nearest_rank sorted) qs

let percentile t q = List.hd (percentiles t [ q ])

let median xs =
  let t = create (List.length xs) in
  List.iter (add t) xs;
  percentile t 50.

let ratio a b = if b = 0. then 0. else a /. b

module Schedule = struct
  type t = { start : float; rate : float }

  let due t g = t.start +. (float_of_int g /. t.rate)
  let lateness_ms t g ~now = Float.max 0. ((now -. due t g) *. 1000.)
end
