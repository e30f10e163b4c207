(** Soft-margin C-support-vector classification. *)

type model

val train :
  ?c:float ->
  ?kernel:Kernel.t ->
  ?eps:float ->
  x:float array array ->
  y:int array ->
  unit ->
  model
(** Trains on inputs [x] with labels [y] (each ±1). Defaults:
    [c = 1.0], RBF kernel with γ = 1/dim, [eps = 1e-3]. Raises
    [Invalid_argument] on empty data, ragged rows, or labels outside
    {−1, +1}. *)

val decision : model -> float array -> float
(** Signed distance-like decision value f(x) = b + Σᵢ yᵢαᵢ·K(svᵢ, x),
    run by {!Kernel.expansion} over the support vectors the model keeps
    in one {!Flat.t}. Bit-identity contract: the result equals, to the
    last bit, the boxed {!Kernel.eval} sum taken left to right in
    support-vector order from the bias, as {!Svr.predict} does. *)

val predict : model -> float array -> int
(** sign of {!decision}: +1 or −1 (0.0 maps to +1). *)

val n_support : model -> int
val support_vectors : model -> float array array
val bias : model -> float
val kernel : model -> Kernel.t

val dual_coefs : model -> float array
(** yᵢαᵢ for each support vector, aligned with {!support_vectors}. *)

type raw = {
  raw_kernel : Kernel.t;
  raw_sv : float array array;
  raw_coef : float array;
  raw_b : float;
}
(** The model's internal representation, exposed for serialisation
    ({!Model_io}). *)

val to_raw : model -> raw

val of_raw : raw -> model
(** Rebuilds a model, packing the support vectors into one {!Flat.t};
    no validation beyond shape (raises [Invalid_argument] when
    [raw_sv] and [raw_coef] differ in length or [raw_sv] is ragged). *)
