(** k-fold cross-validation and hyper-parameter grid search for the
    classifiers.

    Every entry point takes an optional pool
    ([Stc_process.Pool]): folds (and, for the grid search, the whole
    (point × fold) task grid) are embarrassingly parallel. Parallel
    runs are bit-identical to serial ones by construction — fold
    assignments are drawn from the rng up front exactly as the serial
    path draws them, each task writes a private slot indexed by its
    task number, and aggregation (fold summation order, tie-breaking)
    happens serially afterwards — verified by the determinism tests in
    [test_svm.ml]. *)

val kfold_indices :
  Stc_numerics.Rng.t -> n:int -> folds:int -> int array array
(** Shuffled fold assignment: [folds] arrays of indices partitioning
    [0, n). Requires [2 <= folds <= n]. *)

val svc_accuracy :
  ?c:float -> ?kernel:Kernel.t -> ?pool:Stc_process.Pool.t ->
  Stc_numerics.Rng.t ->
  x:float array array -> y:int array -> folds:int -> float
(** Mean held-out accuracy of {!Svc.train} over the folds. *)

val svc_fold_scores :
  ?c:float -> ?kernel:Kernel.t -> ?pool:Stc_process.Pool.t ->
  Stc_numerics.Rng.t ->
  x:float array array -> y:int array -> folds:int -> float array
(** The per-fold held-out accuracies behind {!svc_accuracy}, in fold
    order (fold [f] holds positions [f, f+folds, ...] of the shuffled
    index order). *)

val svr_sign_accuracy :
  ?c:float -> ?epsilon:float -> ?kernel:Kernel.t ->
  ?pool:Stc_process.Pool.t ->
  Stc_numerics.Rng.t ->
  x:float array array -> y:float array -> folds:int -> float
(** Mean held-out sign-agreement of {!Svr} used as a classifier. *)

type grid_result = { c : float; gamma : float; accuracy : float }

val grid_search_svc :
  ?pool:Stc_process.Pool.t ->
  Stc_numerics.Rng.t ->
  x:float array array -> y:int array -> folds:int ->
  cs:float array -> gammas:float array -> grid_result
(** Best (C, RBF γ) by cross-validated accuracy; ties go to the first
    combination scanned. Does not advance the caller's rng (folds are
    drawn from a copy, identically for every grid point). *)
