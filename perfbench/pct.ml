(* Order statistics over timing samples.

   Percentiles are nearest-rank: the q-th percentile of n samples is the
   sample of 1-based rank ceil(q n) in sorted order, so it is always a
   measured value.  A percentile is only reported when the sample count
   supports it, i.e. at least [min_beyond] samples lie strictly beyond
   it — below that the tail is one or two unlucky samples, not a
   percentile. *)

let min_beyond = 10

let rank ~n q =
  if n <= 0 then invalid_arg "Pct.rank: no samples";
  if not (q > 0.0 && q <= 1.0) then invalid_arg "Pct.rank: q outside (0, 1]";
  (* the epsilon keeps q n = 90.000000000001 from rounding up a rank *)
  max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let beyond ~n q = n - rank ~n q
let supported ~n q = beyond ~n q >= min_beyond

(* The smallest sample count at which [q] is supported. *)
let samples_needed q =
  let rec go n = if supported ~n q then n else go (n + 1) in
  go 1

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let percentile samples q =
  let s = sorted samples in
  s.(rank ~n:(Array.length s) q - 1)

let median samples = percentile samples 0.5

let mean samples =
  if Array.length samples = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)
