(* The metrics the benchmark reports, as BENCHMARK.json lists them. *)

(* The workloads BENCHMARK.json lists. *)
let workloads = [ "opamp_qualify"; "floor_serve" ]

(* Runnable, but not in BENCHMARK.json: a run's time follows the few
   populations it can qualify, whose SMO work differs by up to 2x, so
   two sets of runs of one code do not agree within a bound (README). *)
let unlisted_workloads = [ "mems_compact" ]

(* Metric (name, unit), in the order BENCHMARK.json lists them. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("op_ms", "ms");
    ("rows_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(* Recorded in the result file beside the end-to-end metrics, without a
   bound: percentiles over every timed op or request, slow host phases
   included (see README). *)
let reported = [ ("op_p50_ms", "ms"); ("op_p90_ms", "ms"); ("op_p99_ms", "ms") ]

let per_layer =
  [
    ("circuit.instance_ms_p50", "ms");
    ("circuit.instance_ms_p99", "ms");
    ("circuit.dc_ms", "ms");
    ("circuit.ac_ms", "ms");
    ("circuit.tran_small_step_ms", "ms");
    ("circuit.tran_large_step_ms", "ms");
    ("circuit.breakdown_pct", "%");
    ("process.generate_s", "s");
    ("process.discard_ratio", "ratio");
    ("mems.instance_ms_p50", "ms");
    ("core.greedy_s", "s");
    ("core.train_s", "s");
    ("core.validate_s", "s");
    ("core.evaluate_s", "s");
    ("core.candidates", "count");
    ("core.accept_ratio", "ratio");
    ("core.tests_kept", "count");
    ("core.escape_pct", "%");
    ("core.yield_loss_pct", "%");
    ("core.guard_pct", "%");
    ("svm.smo_solves", "count");
    ("svm.smo_iterations", "count");
    ("svm.kernel_evals", "count");
    ("svm.kernel_evals_per_s", "1/s");
    ("svm.cache_hit_ratio", "ratio");
    ("floor.flow_write_ms", "ms");
    ("floor.flow_read_ms", "ms");
    ("floor.flow_bytes", "bytes");
    ("floor.process_rows_per_s", "1/s");
    ("floor.batch_ms_p50", "ms");
    ("floor.batch_ms_p99", "ms");
    ("floor.retest_ratio", "ratio");
    ("net.flushes", "count");
    ("net.deadline_flushes", "count");
    ("net.rows_per_flush", "rows");
    ("net.backpressure_stalls", "count");
    ("net.flush_ms_p99", "ms");
    ("net.errors", "count");
    ("net.reloads", "count");
    ("net.reload_ms_p50", "ms");
    ("error_ratio", "ratio");
    ("self.bench_s", "s");
    ("self.circuit_s", "s");
    ("self.mems_s", "s");
    ("self.process_s", "s");
    ("self.core_s", "s");
    ("self.floor_s", "s");
    ("self.net_s", "s");
    ("trace.e2e_s", "s");
    ("trace.layers_pct", "%");
    ("trace.overhead_pct", "%");
  ]

(* Counts that must repeat exactly for one seed, on any machine; two
   commits whose programs should agree can be compared on them. *)
let exact =
  [
    "core.tests_kept"; "core.escape_pct"; "core.yield_loss_pct";
    "core.guard_pct"; "core.candidates"; "svm.smo_solves";
    "svm.smo_iterations"; "svm.kernel_evals"; "floor.flow_bytes";
  ]

(* Test quality, printed beside cost in every run. *)
let quality =
  [ "core.tests_kept"; "core.escape_pct"; "core.yield_loss_pct"; "core.guard_pct" ]
