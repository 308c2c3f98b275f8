open Relational

type kernel_hint = No_kernel | Schema_only | Qgram_cosine | Word_jaccard | Value_jaccard

type t = {
  name : string;
  weight : float;
  kernel : kernel_hint;
  applicable : Attribute.t -> Attribute.t -> bool;
  score : Column.t -> Column.t -> float;
}

let make ~name ?(weight = 1.0) ?(kernel = No_kernel) ~applicable score =
  { name; weight; kernel; applicable; score }

let applicable_pair t src tgt = t.applicable (Column.attribute src) (Column.attribute tgt)

(* OCaml's [Float.min]/[Float.max] propagate NaN, so the clamp alone
   would let a degenerate metric (0/0 in a similarity denominator)
   poison the z-normalisation distribution and every confidence
   derived from it.  A NaN raw score carries no signal: map it to the
   scale's floor. *)
let clamp s = if Float.is_nan s then 0.0 else Float.min 1.0 (Float.max 0.0 s)

let score t src tgt = clamp (t.score src tgt)
