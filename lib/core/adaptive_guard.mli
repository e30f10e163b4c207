(** Distribution-based guard banding — the paper's future-work item
    "estimate the guard-band region based on the device distribution as
    opposed to a fixed value" (Sec. 6).

    Instead of perturbing the acceptability ranges by a preset ±δ and
    training two models, a single model is trained and the guard band
    is the region where its decision value is small: the margin is set
    to the empirical quantile of |f(X)| over the training population so
    that an expected [target_guard] fraction of production devices is
    routed to full test. *)

type config = {
  learner : Compaction.learner;
  target_guard : float;  (** desired guard fraction, e.g. 0.05 *)
}

val default_config : config
(** {!Learner.default_svr} (C = 10, ε = 0.1, γ from the median
    heuristic) targeting 5 % guard volume. *)

type t

val train : ?config:config -> Device_data.t -> dropped:int array -> t
(** Trains the decision function on pass/fail of [dropped] through
    {!Learner.train} and fits the margin on the same training data.
    Raises [Invalid_argument] for an empty, out-of-range or duplicate
    [dropped] set. *)

val margin : t -> float
(** The fitted decision-value margin. *)

val band : t -> Guard_band.t
(** Good iff f(x) ≥ margin, Bad iff f(x) ≤ −margin, Guard otherwise. *)

val flow : t -> Compaction.flow
(** Packages the adaptive band as a production flow (no
    measured-proximity guarding — the margin already encodes the
    distribution). *)
