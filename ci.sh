#!/usr/bin/env bash
# Offline CI gate: tier-1 (release build + full test suite) plus a
# zero-warning clippy sweep over every target. No network access is
# required — the workspace has no external dependencies.
#
# The tier-1 stages are wall-clocked so fault-simulation / test-suite
# perf regressions show up in the CI log itself.
set -euo pipefail
cd "$(dirname "$0")"

t0=$(date +%s)
echo "== tier-1: release build =="
cargo build --release
t1=$(date +%s)
echo "tier-1 build wall clock: $((t1 - t0)) s"

echo "== tier-1: test suite =="
cargo test -q
t2=$(date +%s)
echo "tier-1 test wall clock: $((t2 - t1)) s"
echo "tier-1 total wall clock: $((t2 - t0)) s"

# Fast standalone re-run of the supervisor's fault-injection matrix
# (every stage x every fault kind must recover or fail typed). Already
# covered by the suite above; kept as its own target so a resilience
# regression is named in the CI log.
echo "== resilience: fault-injection smoke =="
cargo test -q --release --test resilience fault_injection_matrix
t3=$(date +%s)
echo "fault-injection smoke wall clock: $((t3 - t2)) s"

# O(cone) incremental-STA smoke: replay one (corner, seed) point of the
# paper's ECO history. The test fails if any localized change falls back
# to a full re-annotation, recompiles the engine's netlist snapshot
# instead of patching it, or spends O(netlist) counted bookkeeping
# (levels recomputed, fanout entries patched and endpoint recomputes are
# each asserted well below netlist size per change). The snapshot's
# (level, id) order re-sort after a level change is O(instances) and
# uncounted. Five more tests ride along: the hold-fix loop's two-buffer
# delta must patch (not recompile) and re-time bit-identically; a flow
# whose fix loops both run must hand the engine's patched copy of the
# scanned snapshot to the two-corner sign-off (no compile in the
# timing-fix stage, sign-off equal to a fresh compile's, results equal
# to a pinned digest); a timing-driven ip_block flow, serial and at 2
# threads, must match its pinned digests; the DSC flow's compile audit
# must read two compiles (pre-layout STA, Scan) and none in any other
# stage; and the fix-loop flow resumed from a checkpoint decoded after
# TimingFix (whose final-netlist snapshot is a fresh compile) must
# finish bit-identical.
# Already in the suite above; named here so an incremental-STA perf
# regression is called out in the CI log.
echo "== eco_sta: O(cone) incremental-STA smoke =="
cargo test -q --release --test sta_incremental replay_is_bit_identical_typical_corner_seed_a
cargo test -q --release -p camsoc-sta --lib \
    incremental::tests::two_buffers_on_one_net_patch_in_one_update
cargo test -q --release --test full_flow -- \
    faster_clock_is_harder_to_close \
    ip_block_flow_matches_pinned_digests \
    dsc_controller_reaches_signoff \
    resume_after_timing_fix_matches_uninterrupted_run
t4=$(date +%s)
echo "eco_sta smoke wall clock: $((t4 - t3)) s"

# Parallel-kernel smoke: the two kernels parallelized in the routing /
# multi-corner-STA round must stay bit-identical to serial at 1/2/4
# threads, and the full-flow two-corner sign-off must actually engage
# the fan-out (`threads_used` assertions fail if either kernel silently
# drops back to serial). The router's own unit tests pin its congested
# result to a recorded digest (serial and 2 threads) and require a
# reused A* scratch to return the same path as a fresh one. The placer's
# unit tests pin three placements (one of them multi-start, serial and
# 2 threads) and a tiled hierarchical top to digests, and check every
# incremental net box against a fresh fold after each random move; the
# pin annealer's tests pin the ECO replay's 13 pin versions and check
# its reused-buffer kernels against reference counts. Already in the
# suite above; named here so a determinism, plumbing, routing- or
# placement-kernel regression is called out in the CI log.
echo "== par: route + multi-corner STA determinism smoke =="
cargo test -q --release --test par_determinism -- \
    routing_is_thread_count_invariant \
    multi_corner_sta_is_thread_count_invariant
cargo test -q --release -p camsoc-layout --lib -- \
    route::tests::congested_route_matches_pinned_digest \
    route::tests::reused_search_scratch_matches_fresh_scratch \
    place::tests::wirelength_placement_matches_pinned_digest \
    place::tests::timing_driven_placement_matches_pinned_digest \
    place::tests::multi_start_placement_matches_pinned_digest \
    place::tests::incremental_boxes_match_fresh_folds
cargo test -q --release -p camsoc-core --lib \
    hier::tests::hier_top_placement_among_macro_pins_is_pinned
cargo test -q --release -p camsoc-pinassign --lib -- \
    assign::tests::eco_pin_versions_match_pinned_digests \
    assign::tests::inversions_match_quadratic_count_with_ties \
    assign::tests::reused_scratch_ranks_match_stable_sort
cargo test -q --release --test full_flow \
    two_corner_signoff_on_dsc_engages_parallel_kernels
t5=$(date +%s)
echo "par smoke wall clock: $((t5 - t4)) s"

# Compiled-netlist smoke: the SoA/CSR snapshot must mirror the graph
# adjacency exactly, whole equivalence reports must match values pinned
# while a graph-walking engine still ran beside the compiled one (the
# fault simulator and the support walks are checked against the naive
# oracles of `camsoc_bench::oracle` in the suite above), and a
# journal-patched snapshot must equal a fresh compile across the full
# paper ECO history and after a six-op journal with one of every
# journaled edit. STA has one engine, the compiled pass; its test-only
# graph oracle in camsoc-sta must agree with it annotation for
# annotation at the typical, worst and best corners, with estimated and
# extracted wires, CTS latencies, hardened-macro models and hold
# violations. The equivalence checker's BDD cone build reads the
# snapshot too: its whole reports stay pinned to values recorded before
# the per-worker proof scratch (serial and 2 threads), a reused scratch
# must match a fresh one across model sizes and an epoch wrap, and a
# 100,000-level cone must prove without recursing. Already in the suite
# above; named here so a compiled-core regression is called out in the
# CI log.
echo "== compiled: SoA/CSR bit-identity smoke =="
cargo test -q --release --test compiled_netlist -- \
    csr_adjacency_matches_graph_adjacency \
    equiv_reports_are_pinned_across_threads \
    journal_patched_snapshot_matches_fresh_compile_across_eco_history
cargo test -q --release -p camsoc-sta --lib \
    oracle::tests::sta_reports_on_compiled_core_match_graph_engine
cargo test -q --release -p camsoc-netlist --lib -- \
    eco::tests::journal_patches_fanout_structures \
    equiv::tests::eco_fixture_reports_are_pinned \
    equiv::tests::phase_two_mismatch_report_is_pinned \
    equiv::tests::reused_proof_scratch_matches_fresh_scratch \
    equiv::tests::deep_chain_cones_prove_without_recursion
t6=$(date +%s)
echo "compiled smoke wall clock: $((t6 - t5)) s"

# Serve-farm smoke: enqueue 3 small tapeout jobs, kill the farm mid-run
# (stage-budget simulated kill: ledger frozen at `running`, checkpoints
# on disk), restart it on the same directory, and require all 3 jobs to
# complete with clean sign-off, >= 1 trace recording resumed == true,
# and GDSII bit-identical to uninterrupted supervisor runs. The
# kill-after-every-stage matrix behind it also runs named from the
# suite so a checkpoint-durability regression is called out in the log.
echo "== serve: durable farm kill/restart smoke =="
rm -rf target/ci-serve-smoke
cargo run -q --release -p camsoc-serve --bin serve_smoke target/ci-serve-smoke
rm -rf target/ci-serve-smoke
cargo test -q --release --test serve_farm \
    kill_after_every_stage_resumes_bit_identical
t7=$(date +%s)
echo "serve smoke wall clock: $((t7 - t6)) s"

# Serve-farm contention smoke: TWO worker processes on ONE directory.
# Process A is SIGKILLed mid-stage; process B must reclaim A's jobs the
# moment their leases go provably stale (owner lock released by the OS)
# and finish everything with GDSII bit-identical to uninterrupted
# reference runs. A second scenario drives an always-panicking poison
# job to the `quarantined` terminal state after deterministic retries
# while healthy jobs drain normally. The in-process two-farm /
# stale-vs-live-lease / preemption matrix also runs named from the
# suite so a lease-protocol regression is called out in the log.
echo "== serve: two-process contention + quarantine smoke =="
rm -rf target/ci-serve-contention
cargo run -q --release -p camsoc-serve --bin serve_contention target/ci-serve-contention
rm -rf target/ci-serve-contention
cargo test -q --release --test serve_farm -- \
    concurrent_farms_share_one_directory \
    stale_leases_reclaim_but_live_leases_do_not \
    critical_jobs_preempt_running_low_priority_work \
    poison_jobs_quarantine_without_stalling_the_queue
t7b=$(date +%s)
echo "serve contention smoke wall clock: $((t7b - t7)) s"

# Hierarchical-hardening smoke: harden a small tile library in parallel
# through the full flow, integrate the abstracts at top level, and
# re-run against the warm abstract cache — the warm pass must re-harden
# nothing and produce a bit-identical integration (GDSII included), and
# the hierarchical implementation must agree with the flat one on the
# sign-off outcome with worst slack inside the abstract's pessimism
# bound. Reduced-scale tiles keep this bounded; the million-gate
# comparison lives in perf_report. Already in the suite above; named
# here so a hierarchy regression is called out in the CI log.
echo "== hier: bottom-up hardening + warm-cache smoke =="
cargo test -q --release --test hier_hardening -- \
    hier_and_flat_agree_on_signoff \
    warm_cache_rehardens_nothing_and_changes_nothing
cargo test -q --release --test par_determinism \
    macro_hardening_is_thread_count_invariant
t7c=$(date +%s)
echo "hier smoke wall clock: $((t7c - t7b)) s"

# Docs smoke: the performance/architecture documentation must stay in
# sync with the tree. Fails if any relative markdown link in README,
# docs/ARCHITECTURE.md or docs/PERFORMANCE.md points at a missing file,
# or if a backtick-quoted "key" named in docs/PERFORMANCE.md does not
# appear in BENCH_par.json.
echo "== docs: cross-link + BENCH schema smoke =="
docs_fail=0
for doc in README.md docs/ARCHITECTURE.md docs/PERFORMANCE.md; do
    if [ ! -f "$doc" ]; then
        echo "docs smoke: $doc is missing"
        docs_fail=1
        continue
    fi
    dir=$(dirname "$doc")
    links=$(grep -oE '\]\([^)#]+' "$doc" | sed 's/^](//' \
        | grep -vE '^(https?:|mailto:)' || true)
    for link in $links; do
        if [ ! -e "$dir/$link" ] && [ ! -e "$link" ]; then
            echo "docs smoke: $doc links to missing file: $link"
            docs_fail=1
        fi
    done
done
if [ -f docs/PERFORMANCE.md ] && [ -f BENCH_par.json ]; then
    keys=$(grep -oE '`"[a-z_]+"`' docs/PERFORMANCE.md | tr -d '`' | sort -u || true)
    for key in $keys; do
        if ! grep -qF "$key" BENCH_par.json; then
            echo "docs smoke: PERFORMANCE.md references $key, absent from BENCH_par.json"
            docs_fail=1
        fi
    done
else
    echo "docs smoke: docs/PERFORMANCE.md or BENCH_par.json is missing"
    docs_fail=1
fi
[ "$docs_fail" -eq 0 ]
echo "docs smoke OK"

# End-to-end benchmark build: `e2ebench/` is its own cargo workspace
# with path dependencies on the crates, so nothing above compiles it.
# Building and testing it here catches an API change that would break
# the benchmark before the benchmark runs.
echo "== e2ebench: build + tests against the repository =="
t7d=$(date +%s)
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml
t8=$(date +%s)
echo "e2ebench wall clock: $((t8 - t7d)) s"

echo "== clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (-D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
