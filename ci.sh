#!/usr/bin/env bash
# CI entry point: tier-1 verify (build + full gtest suite via ctest,
# including the byte goldens that pin every preset payload), the
# declarative experiment-API gates (spec round-trip + parity checks via
# run_experiment), the sweep-engine equivalence/speedup bench, the
# Monte-Carlo engine bench, the two-process sharded run demo
# (contiguous AND pilot-cost-balanced splits), the fleet soak, the
# figure/ablation grid benches (all in smoke mode), the micro benches
# with a minimal measurement budget, and ASan+UBSan and TSan test
# builds.
# Leaves the BENCH_*.json artifacts in build/ for the workflow to
# archive.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 2)"

# --- Tier-1 verify ---------------------------------------------------------
cmake -B build -S .
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

# --- Experiment-API gate: emit the fig2 validation spec as a JSON
# file, execute it end-to-end through run_experiment, and require
#   * the spec file to round-trip BYTE-FOR-BYTE through parse +
#     re-serialisation (the wire format must be canonical), and
#   * the parity checks to hold: the batched analytic solve within 1e-12
#     of the scalar batch=1 path, a rerun of the re-parsed spec and an
#     identity-schedule rerun byte-identical to the answer.
# The payloads themselves are pinned by the byte goldens in
# tests/golden_scenarios.h (fig2_val, val_protocol, rare_event), which
# the ctest run above gates.  Non-zero exit on any divergence.
(
  cd build
  ./run_experiment --preset fig2_val --smoke 1 --spec-out fig2_spec.json
  ./run_experiment --spec fig2_spec.json --round-trip-check 1 \
                   --parity-check 1 --out fig2_experiment.json
)

# --- Scenario-model gate: the pluggable detector/attacker grids run
# end-to-end from their spec files.  The plugin-path check gates that a
# re-parsed spec reruns to CANONICALLY IDENTICAL bytes, and
# --round-trip-check that the model descriptors serialise canonically;
# the time-varying presets skip the scalar-path and constant-schedule
# checks (their analytic answers chain MissionAnalyzer instead).
# rare_event additionally exercises the spec.mc.vr round-trip and the
# vr-neutral parity gate (stripping the vr block must leave the DES mc
# payload bitwise), val_protocol_ci the CI-targeted pair-averaged
# stopping on the protocol backend.
for preset in detector_matrix attacker_matrix_v2 mission_phased \
              attacker_surge rare_event val_protocol_ci; do
  (
    cd build
    ./run_experiment --preset "${preset}" --smoke 1 \
                     --spec-out "${preset}_spec.json"
    ./run_experiment --spec "${preset}_spec.json" --round-trip-check 1 \
                     --parity-check 1 --out "${preset}_experiment.json"
  )
done

# --- Sweep-engine smoke: exits non-zero if the cached-rate path diverges
# from fresh per-point exploration, and records BENCH_sweep.json.
(cd build && ./bench_sweep --smoke)

# --- Monte-Carlo engine smoke: exits non-zero if the batched path loses
# its >= 3x speedup at equal CI width, the analytic values fall outside
# the simulation CIs, CRN stops reducing contrast variance, or the
# antithetic pairs stop beating plain CRN.  Records BENCH_mc.json.
(cd build && ./bench_mc --smoke)

# --- Sharded run demo: two run_experiment PROCESSES each answer one
# shard of the paper spec (concurrently — this is the multi-process
# path, not a thread demo), then `run_experiment --merge` recombines the
# experiment-result files, reports the per-shard seconds and the
# slowest/fastest ratio, and (--parity-check 1) reruns the merged spec
# in one process and requires the canonical backend payloads to be
# BYTE-IDENTICAL.  Non-zero exit on any divergence.  fig2 exercises the
# replication-balanced by_pilot_cost split (every process derives the
# identical plan from a deterministic pilot block), fig4 the plain
# contiguous split.
run_shard_demo() {
  local plan="$1" policy="$2"
  (
    cd build
    ./run_experiment --preset "${plan}_val" --smoke 1 --shard 0/2 \
                     --policy "${policy}" --out "shard_0_${plan}.json" &
    local SHARD0=$!
    ./run_experiment --preset "${plan}_val" --smoke 1 --shard 1/2 \
                     --policy "${policy}" --out "shard_1_${plan}.json" &
    local SHARD1=$!
    # Two waits: `wait p0 p1` would report only p1's status.
    wait "${SHARD0}"
    wait "${SHARD1}"
    ./run_experiment --merge "shard_0_${plan}.json,shard_1_${plan}.json" \
                     --parity-check 1 --out "merged_${plan}.json"
  )
}
run_shard_demo fig2 by_pilot_cost
run_shard_demo fig4 contiguous

# --- Fault-tolerant fleet soak: a coordinator drives FOUR fleet_worker
# processes through the fig2 validation spec over loopback TCP while a
# fault plan kills two of them mid-run (one crashes while computing a
# shard, one after computing but before sending the result).  The gate
# requires (a) both scheduled kills actually fired, (b) the coordinator
# detected the deaths and reassigned the orphaned leases, and (c) the
# merged ExperimentResult is BYTE-IDENTICAL (canonical JSON, wall-clock
# timings zeroed) to a crash-free single-process run_experiment answer.
# Records BENCH_fleet_soak.json (recovery latency, reassignments,
# duplicates dropped).
(
  cd build
  ./fleet_soak --preset fig2_val --smoke 1 --workers 4 --clients 2 \
               --faults "crash_mid_shard=1;crash_before_result=1" \
               --out BENCH_fleet_soak.json
)

# --- Figure/ablation grid benches, smoke mode: every figure runs as a
# core::GridSpec batch and validates each grid point against a
# CI-bounded Monte-Carlo interval (CRN + antithetic).  Non-zero exit if
# the analytic values leave the simulation CIs.  Records
# BENCH_fig*.json / BENCH_abl*.json.
for b in fig2_mttsf_vs_m fig3_cost_vs_m fig4_mttsf_vs_detection \
         fig5_cost_vs_detection abl_attacker_matrix abl_sensitivity \
         val_protocol_sim ext_mission_reliability; do
  (cd build && "./${b}" --smoke)
done

# --- Phased-mission gate: constant schedules/missions must reproduce
# the no-schedule canonical backend payloads BYTE-FOR-BYTE, the chained
# analytic R(t)/MTTSF must sit inside the DES confidence intervals on
# the 3-phase mission_phased preset at paper N=100, and the λc×4
# attacker_surge schedule must agree across all three backends.
# Non-zero exit on any gate flip.  Records BENCH_mission.json.
(cd build && ./bench_mission --smoke)

# --- Variance-reduction gate: the rare_event preset through the vr
# subsystem.  Non-zero exit if the sobol/cv/splitting payloads stop
# being bitwise identical across 1/2/4 worker threads, if the TTSF
# control variate's work-normalised efficiency drops below 5x at the
# hot-λq corner, if the multilevel-splitting estimate leaves 2x its CI
# around the analytic p_failure_c2 ~ 3e-6 tail, or if the plain pass
# stops flagging its zero-C2 failure proportion one-sided.  Records
# BENCH_vr.json.
(cd build && ./bench_vr --smoke)

# --- Scenario-model bench: every pluggable detector and attacker model
# as its own experiment — per-scenario wall clock, convergence at the
# preset CI target, and (for the analytic-compatible scenarios:
# static/entropy detectors, poisson attacker) the SPN answer inside the
# DES 95% CI.  Non-zero exit on any gate flip.  Records
# BENCH_scenarios.json.
(cd build && ./bench_scenarios --smoke)

# --- Batched-solver kernel bench: standalone (always built), so it runs
# unconditionally.  Exits non-zero if the batched solve falls below its
# per-profile kernel speedup floor, if reuse-off stops being bitwise the
# scalar solve, if reuse-on leaves 1e-12, or if factor reuse stops
# sharing factorisations on the identical-point profile.  Records
# BENCH_solver.json.
(cd build && ./micro_solver --smoke)

# --- Micro benches, smoke budget (skipped when Google Benchmark absent).
for b in micro_voting; do
  if [ -x "build/${b}" ]; then
    (cd build && "./${b}" --benchmark_min_time=0.01)
  fi
done

# --- ASan+UBSan build-and-test: the batched kernels lean on pointer/
# span arithmetic over arena scratch, and the fleet on sockets and
# frame buffers, so rebuild the library + test suite with
# AddressSanitizer (LeakSanitizer included) and
# UndefinedBehaviorSanitizer together (non-recoverable: any finding
# aborts) and run the full gtest binary once.  Only the midas_tests
# target is built — the bench/tool executables are covered by the
# plain build.
cmake -B build-asan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build build-asan -j"${JOBS}" --target midas_tests
ASAN_OPTIONS="halt_on_error=1" ./build-asan/midas_tests

# --- TSan build-and-test: the thread paths — the Monte-Carlo engine's
# chunked schedule (workers write disjoint sample slots that the
# calling thread then reduces), parallel_for, the vr and splitting
# runners, the byte goldens, and the fleet's coordinator, worker and
# transport reader threads — rebuilt with ThreadSanitizer.  Any report
# fails the run (halt_on_error).  Only midas_tests is built.
cmake -B build-tsan -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
      -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j"${JOBS}" --target midas_tests
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/midas_tests \
  --gtest_filter='McEngine.*:ThreadPool.*:VrEngine.*:Splitting.*:ScenarioParity.*:Fleet.*:LeaseTable.*'

echo "ci.sh: all checks passed"
