(** ε-support-vector regression — the paper's "ε-SVM". The compaction
    flow trains it on ±1 pass/fail targets and classifies by the sign
    of the regression function (Sec. 2.2 of the paper). *)

type model

type warm
(** Mutable warm-start state threaded across successive [train] calls.
    Each solve seeds SMO from the alphas of the previous solve made
    with the same state (bit-valid: the ε-SVR dual's extended labels
    are fixed by the formulation, so any previous solution satisfies
    the next problem's equality and box constraints whenever sizes and
    C agree — otherwise the state is ignored and the solve starts
    cold). The trained model itself is
    identical in meaning either way; only iteration count changes. *)

val warm_state : unit -> warm
(** A fresh, empty warm-start state (first use trains cold). *)

val train :
  ?c:float ->
  ?epsilon:float ->
  ?kernel:Kernel.t ->
  ?eps:float ->
  ?warm:warm ->
  x:float array array ->
  y:float array ->
  unit ->
  model
(** [epsilon] is the insensitive-tube half-width (default 0.1);
    [eps] the SMO stopping tolerance (default 1e-3); other defaults as
    in {!Svc.train}. When [warm] is given, the solve is seeded from
    the state's previous solution (if compatible) and the state is
    updated with this solve's alphas. *)

val predict : model -> float array -> float
(** The regression estimate f(x). *)

val classify : model -> float array -> int
(** sign of {!predict}: +1 or −1. *)

val n_support : model -> int
val bias : model -> float
val kernel : model -> Kernel.t

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
(** Rebuilds a model; no validation beyond array-length agreement
    (raises [Invalid_argument] on mismatch). *)
