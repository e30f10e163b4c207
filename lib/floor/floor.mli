(** The test-floor serving engine: loads a compacted flow (trained by
    {!Stc.Compaction.greedy}, persisted by {!Flow_io}) and bins a stream
    of device measurement rows in configurable batches across a
    persistent {!Stc_process.Pool} of worker domains.

    Verdicts are bit-identical to calling
    {!Stc.Compaction.flow_verdict} row by row, regardless of batch size
    and domain count: each row's verdict depends only on the row, and
    guard escalation runs in row order on the submitting domain.

    Resilience: the retest callback stands for an external full-test
    station and may fail. With a {!Retry} policy the engine retries
    transient failures; when the station keeps failing — or a batch
    blows its deadline — the engine degrades instead of stopping: guard
    devices are binned {!Stc.Tester.Retest} for a later station,
    counted in [stats.degraded], and serving continues. No device is
    ever dropped. *)

type config = {
  batch_size : int;  (** devices classified per pool dispatch *)
  domains : int;     (** total parallelism, incl. the calling domain *)
}

val default_config : config
(** 256-device batches, single domain. *)

type outcome = {
  bin : Stc.Tester.bin;
  verdict : Stc.Guard_band.verdict;
}

type stats = {
  devices : int;
  shipped : int;
  scrapped : int;
  retested : int;     (** guard verdicts routed to full test *)
  retries : int;      (** retest attempts beyond each device's first *)
  degraded : int;     (** guard devices shed to [Retest] because the
                          station failed, the engine was in degraded
                          mode, or the batch deadline had passed *)
  batches : int;
  elapsed_s : float;  (** total time spent inside {!process} batches *)
  last_batch_s : float;
}

val empty_stats : stats
(** All counters zero — the state after [create] or {!reset_stats}. *)

type t

val create : ?config:config -> Stc.Compaction.flow -> t
(** Spawns the worker pool and stages the flow's verdict
    ({!Stc.Compaction.flow_verdict} applied to the flow) once; reuse
    the engine across many calls to {!process} and {!shutdown} it when
    the lot is finished. Staging raises nothing: a guard fraction that
    collapses a kept range raises from {!process}, at the first row
    that reaches the collapsed check. *)

val flow : t -> Stc.Compaction.flow
val config : t -> config

val full_test : Stc.Compaction.flow -> float array -> bool
(** The complete specification test on a full-width measurement row:
    true iff every spec (kept and dropped) passes its acceptance range.
    This is the retest-station stand-in every serving front end uses
    when the data source already carries all columns (`stc serve`'s
    CSV, the network server's wire rows) — exposed here so they share
    one definition. False (never raises) on a width mismatch. *)

val process :
  ?retest:(float array -> bool) ->
  ?retry:Retry.policy ->
  ?batch_deadline_s:float ->
  ?strict:bool ->
  t -> float array array -> outcome array
(** Bins each row: model-confident parts ship or scrap directly;
    guard-band parts are escalated to [retest] — the full (adaptive)
    specification test, [true] = part passes and ships. Without a
    callback guard parts are binned {!Stc.Tester.Retest} for a later
    station. Rows must have the flow's spec count (only kept columns
    are read). Raises [Invalid_argument] on width mismatch or after
    {!shutdown}.

    [retry] wraps each retest call in {!Retry.run}: transient
    exceptions are retried per the policy (attempts counted in
    [stats.retries]); when the attempts are exhausted or the failure is
    classified permanent, the device is shed — binned [Retest], counted
    in [stats.degraded] — and the engine enters {!degraded} mode, in
    which later guard devices are shed directly instead of hammering a
    dead station. Without [retry], a raising callback propagates to the
    caller (the pre-resilience contract).

    [batch_deadline_s] bounds each batch's escalation phase: once a
    batch has been processing for that long, its remaining guard
    devices are shed (counted [degraded]) rather than waiting on more
    retest calls. The deadline is per batch — the next batch starts
    fresh; it does not by itself enter degraded mode. Raises
    [Invalid_argument] when not positive.

    Non-finite measurements (NaN/±inf, e.g. from a data-logger glitch)
    in a kept column never pass a range check, so by default such a
    device deterministically bins [Scrap] — a documented graceful
    degradation verified by [Stc_qa.Faults]. Pass [~strict:true] to
    instead reject the whole call with [Invalid_argument] before any
    row is binned (the batch is then untouched and the engine's
    counters — all of {!stats}, including [batches] and [elapsed_s] —
    do not move). *)

val stats : t -> stats
(** Cumulative since creation (or the last {!reset_stats}). Each count
    is a lock-free read of an atomic {!Stc_obs.Registry.Counter};
    the same events are mirrored into the global registry as
    [stc_floor_devices_total], [stc_floor_shipped_total],
    [stc_floor_scrapped_total], [stc_floor_retested_total],
    [stc_floor_retries_total], [stc_floor_degraded_total] and
    [stc_floor_batches_total], with per-batch latency in the
    [stc_floor_batch_s] histogram. *)

val degraded : t -> bool
(** True once a retest callback has permanently failed; sticky until
    {!reset_stats} (i.e. until the operator declares the full-test
    station repaired). *)

val reset_stats : t -> unit
(** Zeroes every {!stats} counter and leaves {!degraded} mode. *)

val throughput : t -> float
(** Devices per second over the accumulated batch time. *)

val report : t -> string
(** Counter table via {!Stc.Report.table}. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent. *)

val with_engine : ?config:config -> Stc.Compaction.flow -> (t -> 'a) -> 'a
