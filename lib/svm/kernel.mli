(** Kernel functions for the SVM solvers. *)

type t =
  | Linear
  | Polynomial of { gamma : float; coef0 : float; degree : int }
      (** (γ·⟨x,y⟩ + c₀)^d *)
  | Rbf of { gamma : float }  (** exp(−γ·‖x−y‖²) *)
  | Sigmoid of { gamma : float; coef0 : float }  (** tanh(γ·⟨x,y⟩ + c₀) *)

val rbf : float -> t
val linear : t

val eval : t -> float array -> float array -> float
(** [eval k x y] computes K(x, y). *)

val eval_rows : t -> Flat.t -> int -> int -> float
(** [eval_rows k rows i j] computes K(rowsᵢ, rowsⱼ) over contiguous
    {!Flat} storage, bit-identical to [eval] on the boxed rows (the
    flat primitives accumulate in the same order as [Vec.dot]/
    [Vec.dist2]). This is the SMO hot-path entry point. *)

val expansion :
  t -> Flat.t -> coef:float array -> bias:float -> float array -> float
(** [expansion k sv ~coef ~bias x] is the SVM decision value
    [bias + Σᵢ coefᵢ·K(svᵢ, x)], accumulated in support-vector order.
    The kernel is matched once and the sum runs as one bounds-check-free
    loop over the flat rows; the result is bit-identical to folding
    {!eval} over the boxed rows in the same order. Raises
    [Invalid_argument] when [coef] and [sv] differ in length or, if
    there are support vectors, when [x] differs from their dimension. *)

val default_gamma : dim:int -> float
(** libsvm's default 1/dim heuristic. *)

val median_gamma : float array array -> float
(** The median heuristic: γ = 1 / median(‖xᵢ−xⱼ‖²) over a deterministic
    subsample of pairs. Unlike 1/dim it adapts to the data's actual
    spread, which matters when features are normalised by wide
    acceptability ranges and the population occupies a small ball.
    Falls back to {!default_gamma} when the data is degenerate (fewer
    than two distinct points). *)

val pp : Format.formatter -> t -> unit
