#!/bin/sh
# Tier-1 gate: build, full test suite, lint wall, formatting.
# Hermetic — the workspace vendors all external crates, so this runs
# without network access.
set -eux

cargo build --workspace --release
# Figure-flow gate: the flows that run the two-pass step (cell, array,
# margin search, ring) and the coupled loop must finish and print
# their verdict; together they take about 2 s.
for bin in fig5_glitch fig8_methodology x3_array_ber x4_coupled x5_ringosc x6_accelerated; do
    "target/release/$bin" > "target/$bin.out"
    grep -q '^verdict: ' "target/$bin.out"
done
cargo test -q --workspace
# Fault-injection suite: rescue ladders, failure policies, and the
# deterministic FaultPlan machinery (also runs as part of the
# workspace tests above; pinned here so a test-filter change can
# never silently drop it from the gate).
cargo test -q -p samurai --test fault_injection
cargo test -q -p samurai-core --test properties
# FFT suite: the blocked passes, the batched power sums, the stage
# kernel at every tile width, the pooled spectrum buffers and Welch's
# on-the-fly centring, bit for bit against the textbook loop. These pin
# the trap_validation digest and the fig7 goldens, whose R(τ) and S(f)
# run through that kernel (pinned for the same reason as the suites
# around it). It runs again optimised, as the ledger and the figure
# bins are built, so the bit identity is checked where the optimiser
# could break it.
cargo test -q -p samurai-analysis
cargo test -q --release -p samurai-analysis
# Telemetry suite: recording runs bit-identical to noop-recorder runs,
# journal byte-identical across worker counts (pinned for the same
# reason as the fault-injection suite).
cargo test -q -p samurai --test telemetry
# Dense↔sparse equivalence suite: the sparse solver backend has no
# hand-derived goldens of its own — this suite pins it to the
# bit-exact dense path (pinned here so it can never silently drop
# out of the gate).
cargo test -q -p samurai --test solver_equivalence
# Two-pass bit-identity suite: the cell, ring, array and column flows
# share one SPICE → SAMURAI → SPICE step; these fingerprints were
# captured before they shared it (pinned for the same reason as the
# suites above).
cargo test -q -p samurai --test two_pass_golden
# SPICE fingerprint suite: the 6T cell's dcop and write transient,
# bit for bit on the dense and forced-sparse paths; the single cell and
# every column row share one 6T builder, which must keep these bits
# (pinned for the same reason as the suites above).
cargo test -q -p samurai --test spice_golden
# Crash-safety suite: a column ensemble killed mid-run at 1/2/8
# workers, on the dense and sparse solvers and with a quarantined
# member in flight, must resume into the uninterrupted run's stats and
# journal bytes; a corrupted snapshot cold-starts and a budget
# truncation resumes into the full run (pinned so a test-filter change
# can never drop it from the gate).
cargo test -q -p samurai --test checkpoint
# Serve unit suite: the exact `/metrics` document after a fixed mix of
# accepted, cached, in-flight, busy, completed and failed submissions,
# and chunked runs whose journals match the direct run's bytes
# (pinned for the same reason as the suites above).
cargo test -q -p samurai-serve --lib
# Trap-result suite: the sealed per-panel means of two trap specs,
# fingerprinted while each panel still built its sampled trace, so a
# change to how the staircase is sampled or reduced that moves a bit
# fails here (the serve journals carry counts, not these values;
# pinned for the same reason as the suites above).
cargo test -q -p samurai-serve --test trap_results
# Hostile-file suite: a checkpoint, a request and a result document,
# each damaged at every byte and cut at every length, must load whole
# or not at all through the one envelope codec and the runtime
# decoders (pinned for the same reason as the suites above).
cargo test -q -p samurai-serve --test hostile_files
# HTTP suite: the service's end-to-end contract plus its hostile-input
# cases (a deeply nested body, an endless request line, ten thousand
# headers), each answered 400 with the server still serving (pinned
# for the same reason as the suites above).
cargo test -q -p samurai-serve --test http_service
# Hostile-JSON suite: a sealed document, the committed fig7 summary
# and an x7 journal line, each damaged at every byte and cut at every
# length, must parse to a tree that round-trips or fail without a
# panic (pinned for the same reason as the suites above).
cargo test -q -p samurai-telemetry --test hostile_json
# Hostile-deck suite: the parser's documented deck, damaged at every
# byte and cut at every length, must fail naming a line of the deck or
# compile without a panic (pinned for the same reason as the suites
# above).
cargo test -q -p samurai-spice --test hostile_decks
# SPICE property suite: besides circuit theory, it pins the Newton
# loop's shortcuts bit for bit — the residual-only convergence check
# against the full assembly (every stamp kind, both backends, DC, BE
# and trapezoidal) and the hinted PWL lookups against `Pwl::eval`.
# These keep the column and corner digests, so the suite runs again
# optimised, as the ledger and the figure bins are built, where the
# optimiser could break the bit identity (pinned for the same reason
# as the suites above).
cargo test -q -p samurai-spice --test properties
cargo test -q --release -p samurai-spice --test properties
# Closed-loop suite: the coupled flow judges every Algorithm 1
# candidate through the open-loop kernel's own thinning step, bit for
# bit against `simulate_trap_probed` over random PWL biases, and
# without feedback its traps follow the master equation under an exact
# binomial test that also rejects rates frozen over whole steps. Both
# run optimised, as the figure bins are built (pinned for the same
# reason as the suites above).
cargo test -q --release -p samurai-core --lib closed_loop_sampler_matches_the_open_loop_kernel_bit_for_bit
cargo test -q --release -p samurai --test coupled_oracle
# SPICE unit suite: the assembly and refresh oracles compare every
# stamp's residual, Jacobian and capacitor-history update with a
# by-coordinates computation bit for bit, and the column and corner
# digests rest on both; like the property suite it runs again
# optimised, where the optimiser could break the bit identity (pinned
# for the same reason as the suites above).
cargo test -q -p samurai-spice --lib
cargo test -q --release -p samurai-spice --lib
# Performance-ledger package tests (the ledger is its own workspace
# with its own lock file, so `--workspace` above never reaches it): a
# smoke pass over all four workloads and digest equality with tracing
# on and off, so a solver change that alters a workload's results
# fails here and not only in a benchmark run.
cargo test -q --offline --manifest-path crates/bench/src/bin/ledger/Cargo.toml
# Bit-identity gate on every workload: one full-size seed-1 run of
# each. The ledger compares the run's journal digest with the one
# pinned in metrics/ledger/digests.json and reports "correct":true on
# its last line only when they match. trap_validation and serve_mixed
# pin the thinning kernel; serve_mixed compares its digest only once
# 32 tickets have arrived, at 8 arrivals per second, hence 5 s.
for run in column64_write:1 corner_sweep:1 trap_validation:1 serve_mixed:5; do
    cargo run -q --release --offline \
        --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
        --workload "${run%:*}" --seed 1 --seconds "${run#*:}" --trace 0 \
        | tail -n 1 | grep -q '"correct":true'
done
cargo clippy --workspace --all-targets -- -D warnings
# Project invariants (determinism / hot-loop purity incl. call-graph
# reachability / draw order / layering / hygiene / unsafe audit): any
# finding fails the build, and the fixture self-check proves the
# analyzer itself still trips on every rule.
cargo run -q -p samurai-lint --release -- --deny
cargo run -q -p samurai-lint --release -- --self-check
# Call-graph artifact gate: dump the workspace graph and
# schema-validate it like the bench metrics artifacts.
cargo run -q -p samurai-lint --release -- --graph target/lint-graph.json
cargo run -q --release -p samurai-bench --bin validate -- graph \
    target/lint-graph.json
cargo fmt --check
cargo bench --workspace --no-run
# Telemetry artifact gate: regenerate the fig7 metrics in smoke mode
# and schema-validate both the fresh artifact and the committed
# golden copy (missing keys / non-finite numbers fail the build). A
# smoke run's traces are too short for the full run's bounds, so it
# must say that it is not judged rather than print a verdict it cannot
# back.
cargo run -q --release -p samurai-bench --bin fig7_validation -- \
    --smoke --metrics target/metrics > target/fig7_validation_smoke.out
grep -q '^verdict: NOT JUDGED — smoke traces' target/fig7_validation_smoke.out
cargo run -q --release -p samurai-bench --bin validate -- metrics \
    target/metrics/BENCH_fig7.json metrics/BENCH_fig7.json
# Crash-safety gate: kill the fig7 smoke mid-ensemble with the
# deterministic crash drill (exit 86, snapshot left behind),
# schema-validate the snapshot, resume from it, and require the
# resumed journal to be byte-identical to the uninterrupted run's
# journal written by the fig7 gate above. `validate checkpoint` runs
# the resume path's own decoder over the snapshot.
rm -f target/metrics/fig7.ckpt
set +e
cargo run -q --release -p samurai-bench --bin fig7_validation -- \
    --smoke --metrics target/metrics/crash \
    --checkpoint target/metrics/fig7.ckpt --checkpoint-every 2 \
    --kill-at-job 5
kill_status=$?
set -e
test "$kill_status" -eq 86
cargo run -q --release -p samurai-bench --bin validate -- checkpoint \
    target/metrics/fig7.ckpt
cargo run -q --release -p samurai-bench --bin fig7_validation -- \
    --smoke --metrics target/metrics/crash \
    --checkpoint target/metrics/fig7.ckpt --resume
cmp target/metrics/crash/JOURNAL_fig7.jsonl target/metrics/JOURNAL_fig7.jsonl
# Solver-scaling artifact gate: the x6_column bin exercises both LU
# backends on generated columns; validate the fresh smoke artifact
# and the committed golden the same way.
cargo run -q --release -p samurai-bench --bin x6_column -- \
    --smoke --metrics target/metrics
cargo run -q --release -p samurai-bench --bin validate -- metrics \
    target/metrics/BENCH_x6_column.json metrics/BENCH_x6_column.json
# Scenario-layer artifact gate: the x7_corners bin sweeps a supply ×
# aging grid through ScenarioConfig and journals a scenario hash per
# job; validate the fresh smoke artifact and the committed golden, and
# require the fresh journal to be byte-identical to the committed one
# (the only committed artifact that runs the column scenario path end
# to end).
cargo run -q --release -p samurai-bench --bin x7_corners -- \
    --smoke --metrics target/metrics
cargo run -q --release -p samurai-bench --bin validate -- metrics \
    target/metrics/BENCH_x7_corners.json metrics/BENCH_x7_corners.json
cmp target/metrics/JOURNAL_x7_corners.jsonl metrics/JOURNAL_x7_corners.jsonl
# Simulation-as-a-service gate (DESIGN.md §15): start the serve daemon
# on an ephemeral port over a fresh store, run a fig7-smoke-sized spec
# through the HTTP API, and prove the three service contracts:
#   1. the submitted job completes and streams a journal;
#   2. an identical resubmission is answered from the store (cache-hit
#      counter moves, no new job is accepted or executed);
#   3. a server killed mid-job by the deterministic exit-86 drill
#      resumes the ticket on restart and its journal comes out
#      byte-identical to the uninterrupted run's.
rm -rf target/serve-store target/serve-store-drill
target/release/serve --store target/serve-store --workers 2 --threads 2 \
    > target/serve.log 2>&1 &
serve_pid=$!
for _ in $(seq 1 50); do
    grep -q "^listening on " target/serve.log && break
    sleep 0.2
done
addr=$(sed -n 's/^listening on //p' target/serve.log)
ticket=$(target/release/samurai-client submit --addr "$addr" \
    --spec trap:6:1024 --seed 42 | sed -n 's/^ticket=\([0-9a-f]*\).*/\1/p')
for _ in $(seq 1 300); do
    target/release/samurai-client status --addr "$addr" --ticket "$ticket" \
        | grep -q '"phase":"done"' && break
    sleep 0.2
done
target/release/samurai-client status --addr "$addr" --ticket "$ticket" \
    | grep -q '"phase":"done"'
target/release/samurai-client journal --addr "$addr" --ticket "$ticket" \
    > target/serve-journal-plain.jsonl
test -s target/serve-journal-plain.jsonl
target/release/samurai-client submit --addr "$addr" --spec trap:6:1024 --seed 42 \
    | grep -q "status=cached"
target/release/samurai-client metrics --addr "$addr" > target/serve-metrics.json
grep -q '"serve.cache_hit":1' target/serve-metrics.json
grep -q '"serve.jobs_accepted":1' target/serve-metrics.json
grep -q '"serve.jobs_completed":1' target/serve-metrics.json
target/release/samurai-client drain --addr "$addr"
wait $serve_pid
# Crash drill: the same spec with a kill trigger, on a fresh store.
# The worker dies with exit 86 mid-ensemble (after at least one
# checkpointed segment, chunk 2 over 6 jobs); the drill is excluded
# from the ticket, so the recovered job is the plain run and resumes
# under the same ticket captured above.
target/release/serve --store target/serve-store-drill --workers 1 --threads 2 \
    --chunk 2 > target/serve-drill.log 2>&1 &
drill_pid=$!
for _ in $(seq 1 50); do
    grep -q "^listening on " target/serve-drill.log && break
    sleep 0.2
done
addr=$(sed -n 's/^listening on //p' target/serve-drill.log)
target/release/samurai-client submit --addr "$addr" \
    --spec trap:6:1024 --seed 42 --kill-at-job 5 || true
set +e
wait $drill_pid
drill_status=$?
set -e
test "$drill_status" -eq 86
test -f "target/serve-store-drill/$ticket.req.json"
target/release/serve --store target/serve-store-drill --workers 1 --threads 2 \
    --chunk 2 > target/serve-resume.log 2>&1 &
resume_pid=$!
for _ in $(seq 1 50); do
    grep -q "^listening on " target/serve-resume.log && break
    sleep 0.2
done
addr=$(sed -n 's/^listening on //p' target/serve-resume.log)
for _ in $(seq 1 300); do
    target/release/samurai-client status --addr "$addr" --ticket "$ticket" \
        | grep -q '"phase":"done"' && break
    sleep 0.2
done
target/release/samurai-client journal --addr "$addr" --ticket "$ticket" \
    > target/serve-journal-resumed.jsonl
cmp target/serve-journal-resumed.jsonl target/serve-journal-plain.jsonl
target/release/samurai-client drain --addr "$addr"
wait $resume_pid
# Store audit: every document both gates left behind must open under
# the decoders the store itself loads it with (schema tag, content
# hash, canonical request, result at its request's ticket).
cargo run -q --release -p samurai-bench --bin validate -- store \
    target/serve-store/*.json target/serve-store-drill/*.json
# Doc lint wall over the first-party crates (vendored stubs excluded).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    -p samurai-units -p samurai-telemetry -p samurai-waveform \
    -p samurai-trap -p samurai-core -p samurai-analysis -p samurai-spice \
    -p samurai-sram -p samurai-serve -p samurai-bench -p samurai -p samurai-lint
