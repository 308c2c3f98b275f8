(** Flat CSR (compressed sparse row) arenas over [Bigarray].

    One arena holds every row of a frozen collection — a partition
    family's per-group gram counts, or inverted-index posting lists —
    in three flat buffers: an [int] offsets array ([rows + 1] entries,
    row [r] spans [offsets.(r) .. offsets.(r+1) - 1]), an [int32] id
    column and a value column.  Flat storage makes row iteration cache-linear (no
    pointer chase through boxed [array array]s), slicing a row is O(1)
    arithmetic on the offsets, and the buffers are plain [Bigarray]s —
    the exact shape a memory-mapped store shard would hand back, so the
    arena layout doubles as the future on-disk layout.

    Values are [int32] for integer counts and [float64] for posting
    frequencies: the frequencies are {e the} floats the scoring kernel
    accumulates, so narrowing them (e.g. to [float32]) would break
    their bit-identity with {!Profile.cosine}.

    The record fields are exposed (not abstracted) on purpose: the
    scoring kernel's inner loops read the buffers directly with
    [Array1.unsafe_get], and an accessor per posting would defeat the
    point of the layout. *)

open Bigarray

type ints = {
  i_offsets : (int, int_elt, c_layout) Array1.t;
  i_ids : (int32, int32_elt, c_layout) Array1.t;
  i_vals : (int32, int32_elt, c_layout) Array1.t;
}
(** Integer-valued rows, e.g. one partition group's (gram id, count)
    per row.  Ids are ascending within a row. *)

type floats = {
  f_offsets : (int, int_elt, c_layout) Array1.t;
  f_ids : (int32, int32_elt, c_layout) Array1.t;
  f_vals : (float, float64_elt, c_layout) Array1.t;
}
(** Float-valued rows, e.g. one posting list (target slot, relative
    frequency) per gram.  Ids are ascending within a row. *)

val pack_ints : (int array * int array) array -> ints
(** Pack per-row [(ids, vals)] pairs (equal lengths per row; ids must
    already be ascending) into one arena. *)

val alloc_floats : int array -> floats
(** Allocate an arena with offsets computed from per-row lengths; the
    id/value buffers are uninitialised — the caller fills (or blits)
    every row.  Lets a splice-rebuild copy untouched rows with bulk
    [Array1.blit] (bit-preserving) instead of round-tripping through
    boxed arrays. *)

val ints_row : ints -> int -> int array * int array
(** Copy row [r] back out as boxed arrays (slicing convenience for
    cold paths and tests; hot loops read the buffers directly). *)

val floats_row : floats -> int -> int array * float array

val floats_bytes : floats -> int
(** Total buffer footprint in bytes (offsets + ids + vals). *)
