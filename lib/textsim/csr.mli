(** Flat CSR (compressed sparse row) arena over [Bigarray].

    One arena holds every row of a frozen collection — a partition
    family's per-group gram counts — in three flat buffers: an [int]
    offsets array ([rows + 1] entries, row [r] spans [offsets.(r) ..
    offsets.(r+1) - 1]), an [int32] id column and an [int32] count
    column.  Flat storage makes row iteration cache-linear (no pointer
    chase through boxed [array array]s), slicing a row is O(1)
    arithmetic on the offsets, and the buffers are plain [Bigarray]s —
    the exact shape a memory-mapped store shard would hand back, so the
    arena layout doubles as the future on-disk layout.

    The record fields are exposed (not abstracted) on purpose: the
    family scorers' inner loops read the buffers directly with
    [Array1.unsafe_get], and an accessor per entry would defeat the
    point of the layout. *)

open Bigarray

type ints = {
  i_offsets : (int, int_elt, c_layout) Array1.t;
  i_ids : (int32, int32_elt, c_layout) Array1.t;
  i_vals : (int32, int32_elt, c_layout) Array1.t;
}
(** Integer-valued rows, e.g. one partition group's (gram id, count)
    per row.  Ids are ascending within a row. *)

val pack_ints : (int array * int array) array -> ints
(** Pack per-row [(ids, vals)] pairs (equal lengths per row; ids must
    already be ascending) into one arena. *)

val ints_row : ints -> int -> int array * int array
(** Copy row [r] back out as boxed arrays (slicing convenience for
    cold paths and tests; hot loops read the buffers directly). *)
