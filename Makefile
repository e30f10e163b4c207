# Convenience targets; `make check` is the tier-1 gate used by CI.

# Seed for the QA sweep (`make qa`); override with QA_SEED=... — it is
# exported as QCHECK_SEED so the qcheck properties in the test suite
# replay the same stream.
QA_SEED ?= 2005

.PHONY: all build check test bench bench-json golden examples qa equiv enrich learners serve-smoke chaos perfcheck ci clean

all: build

build:
	dune build @all

check:
	dune build @all && dune runtest

test:
	dune runtest

bench:
	dune exec bench/main.exe

# The bench harness always writes BENCH_compaction.json, BENCH_svm.json,
# BENCH_floor.json, BENCH_net.json and BENCH_process.json (stc-bench-1
# schema, see DESIGN.md) next to its text output; this target exists so
# CI and scripts have a stable name for "run the benches for their
# machine-readable results".
bench-json:
	dune exec bench/main.exe

# The paper-golden regression tier at near-paper populations (several
# minutes); the smoke tier runs in the default `dune runtest`.
golden:
	STC_SLOW=1 dune exec test/test_main.exe -- test golden

qa:
	QCHECK_SEED=$(QA_SEED) dune runtest
	dune exec bin/stc_cli.exe -- selftest --seed $(QA_SEED) --quiet

# The SMO warm-start / flat-storage equivalence gate (test_svm_equiv.ml):
# warm-started solves reach the cold optimum, and a greedy compaction
# whose candidates each seed from the previous candidate's solve emits
# the same stc-flow-1 bytes as a cold one, pinned to an absolute flow
# fingerprint on each bench. Run by name so that if the suite is ever
# deregistered, the empty filter makes alcotest exit nonzero — CI
# cannot silently skip it.
equiv:
	dune exec test/test_main.exe -- test svm_equiv

# The boundary-enrichment determinism gate (test_process.ml, suite
# process.enrich): the enriched dataset must be bit-identical at 1, 2
# and 4 domains and the importance-weighted yield must agree with an
# independent uniform population. Run by name so a deregistered suite
# makes alcotest exit nonzero — CI cannot silently skip it.
enrich:
	dune exec test/test_main.exe -- test process.enrich

# The learner-zoo differential gate (test_learner.ml): the MLP forward
# pass vs a brute-force reference, stc-mlp-1/stc-flow-2 round trips,
# determinism of training, the MI ranker vs its full-rescan reference,
# and the promotion gate — every non-SVR learner must match or beat
# SVR escape/yield loss on the op-amp and MEMS benches at equal
# tolerance, and a deliberately bad learner must be rejected. Run by
# name so a deregistered suite makes alcotest exit nonzero.
learners:
	dune exec test/test_main.exe -- test learner

# End-to-end network serving smoke: a loopback server on an ephemeral
# port, 100 devices from two concurrent clients (BATCH and pipelined
# BIN paths), a hot reload under the traffic, METRICS in both formats
# and a clean wire SHUTDOWN — all bit-checked against the offline
# Floor reference. Exits nonzero on any mismatch.
serve-smoke:
	dune exec test/serve_smoke.exe

# The chaos gate (test/chaos.ml): a loopback server under deliberate
# abuse — connection flood past the admission cap, slow-loris opener,
# reply-ignoring client, crash-injected flow engine driving the
# circuit breaker through trip/shed/recycle/recover. Every scenario
# must be shed or reaped with a typed ERR line while a well-behaved
# client stays bit-identical to the offline Floor reference.
chaos:
	dune exec test/chaos.exe

# The repository benchmark's own checks (perfbench/test_perfbench.ml):
# among them, that the benchmark's workloads draw the same populations
# as the library's wrapped path, so a lib/ change that breaks them
# fails here rather than in a benchmark run.
perfcheck:
	dune build @perfbench/perfcheck

# Everything the CI workflow runs: build, tier-1 tests, the QA sweep
# (qcheck properties + `stc selftest`) under the pinned seed, the SMO
# equivalence gate, the enrichment determinism gate and the learner-zoo
# differential gate (each fails if its suite is skipped), then the
# network serving smoke, the chaos gate and the benchmark's own checks.
ci:
	dune build @all
	dune runtest
	$(MAKE) qa
	$(MAKE) equiv
	$(MAKE) enrich
	$(MAKE) learners
	$(MAKE) serve-smoke
	$(MAKE) chaos
	$(MAKE) perfcheck

examples:
	dune exec examples/quickstart.exe
	dune exec examples/floor_serving.exe
	dune exec examples/net_serving.exe

clean:
	dune clean
