(** Contiguous row-major storage for SVM training data.

    A boxed [float array array] keeps every row in its own heap block:
    the SMO/kernel hot path then pays a pointer chase plus a bounds
    check per coordinate, and rows scattered across the heap defeat the
    prefetcher. [Flat.t] packs the same matrix into one unboxed float
    array, and the dot/distance primitives below run bounds-check-free
    over it after a single up-front index check.

    Bit-compatibility contract: every primitive accumulates in exactly
    the order of its boxed counterpart ({!Stc_numerics.Vec.dot} /
    [Vec.dist2], left to right over coordinates), so kernel values
    computed through a [Flat.t] are bit-identical to the boxed path —
    the property [Stc_qa.Oracle.flat_kernel_agrees] enforces. *)

type t = private { data : float array; n : int; dim : int }
(** Row [i] occupies [data.(i*dim) .. data.(i*dim + dim - 1)]. The
    fields are readable so that a hot loop elsewhere (the prediction
    sum in {!Kernel.expansion}) can hoist them; [data] must not be
    written. *)

val of_rows : float array array -> t
(** Copies the rows into contiguous storage. Raises [Invalid_argument]
    on ragged input. An empty matrix has dimension 0. *)

val n_rows : t -> int
val dim : t -> int

val get : t -> int -> int -> float
(** [get t i j] is row [i], coordinate [j]; bounds-checked. *)

val row : t -> int -> float array
(** A fresh boxed copy of row [i]. *)

val to_rows : t -> float array array
(** Fresh boxed copies of all rows: the inverse of {!of_rows}. *)

val dot : t -> int -> int -> float
(** [dot t i j] = Σₖ t[i,k]·t[j,k]. *)

val dist2 : t -> int -> int -> float
(** [dist2 t i j] = Σₖ (t[i,k] − t[j,k])². *)
