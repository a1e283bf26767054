#!/usr/bin/env bash
# Tier-1 CI: plain build (warnings are errors) + ctest + bench smokes, then
# the same test suite under ASan+UBSan and under TSan.
# Usage: tools/ci.sh [--plain-only|--sanitize-only|--tsan-only]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"
mode="${1:-all}"
case "${mode}:$#" in
  all:0 | --plain-only:1 | --sanitize-only:1 | --tsan-only:1) ;;
  *)
    echo "usage: tools/ci.sh [--plain-only|--sanitize-only|--tsan-only]" >&2
    exit 2
    ;;
esac

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S "${repo_root}" "$@"
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" --output-on-failure
}

if [[ "${mode}" != "--sanitize-only" && "${mode}" != "--tsan-only" ]]; then
  echo "== plain build (warnings are errors) + tier-1 tests =="
  run_suite "${repo_root}/build" -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
  echo "== paper figure and lesson benches (E-FIG1-3, E-L1-8, ablation; a violated shape check fails CI) =="
  for bench in bench_fig1_deployment bench_fig2_architecture bench_fig3_coverage \
    bench_lesson1_onl bench_lesson2_encryption bench_lesson3_integrity \
    bench_lesson4_scanning bench_lesson5_rbac bench_lesson6_feeds \
    bench_lesson7_sca bench_lesson8_runtime bench_ablation_gates; do
    "${repo_root}/build/bench/${bench}"
  done
  echo "== chaos/resilience bench smoke =="
  "${repo_root}/build/bench/bench_chaos_resilience" --smoke
  echo "== self-healing bench smoke =="
  "${repo_root}/build/bench/bench_self_healing" --smoke \
    --out "${repo_root}/build/BENCH_selfheal.json"
  echo "== pipeline-throughput bench smoke (serial/parallel divergence, a modeled 4-worker speedup < 2x (the other gates in order plus an LPT schedule of the SAST files), or a 4-worker wall speedup < 2x the serial one between the fastest of rounds alternated for 0.5 s per side, fails CI) =="
  "${repo_root}/build/bench/bench_pipeline_throughput" --smoke \
    --out "${repo_root}/build/BENCH_pipeline.json"
  echo "== data-plane crypto bench smoke (a backend, CRC fold or pool/serial divergence from the oracles, seal+open < 9x the bitwise oracle at 1 KB, a hardware backend's seal+open or CRC under its floor over portable at 64 B-9 KB, VAES/VPCLMULQDQ < 1.3x AES-NI/PCLMULQDQ seal+open or < 1.5x its CRC at 4 KB, or a fused seal+open under its floor against the composed CTR and GHASH pieces (GHASH on the same backend's one pass fold) at 64 B, 1,500 B, 4 KB or 9 KB fails CI; every floor is an in-process ratio of the fastest samples of its sides, timed alternately) =="
  "${repo_root}/build/bench/bench_dataplane" --smoke \
    --out "${repo_root}/build/BENCH_dataplane.json"
  echo "== admission-service overload bench smoke (shed/deadline invariants fail CI) =="
  "${repo_root}/build/bench/bench_admission_service" --smoke \
    --out "${repo_root}/build/BENCH_admission.json"
  echo "== discrete-event core bench smoke (a trace or fabric digest off its recorded value, an EventQueue drain < 0.75x as fast as the std::multimap reference queue (eager cancel, one node per live event) timed alongside it (median over passes), or carrier events/sec < 100k fails CI) =="
  "${repo_root}/build/bench/bench_des" --smoke \
    --out "${repo_root}/build/BENCH_des.json"
  echo "== WOTS+ keygen/sign/verify bench smoke (a lane backend whose blocks, key root or signatures differ from the kScalar loop's, a verify() that rejects them, or dispatched lanes < 10x (AVX-512F) / < 3x (SHA-NI loop) the kScalar loop, or a default GenioPlatform build > 0.6x a build plus activate_pon(), fastest of each, alternated (a build that makes the PON keys reads about 0.85), fails CI) =="
  "${repo_root}/build/bench/bench_keygen" --smoke \
    --out "${repo_root}/build/BENCH_keygen.json"
  echo "== SAST precision gate smoke (taint recall < 1.00 or FP rate > 0.00 on either labeled corpus, or a SastEngine::analyze_all over each corpus, sharded by file on a 4-worker pool, that differs from an engine without a pool, fails CI) =="
  "${repo_root}/build/bench/bench_sast_precision" --smoke \
    --out "${repo_root}/build/BENCH_sast.json"
  echo "== scenario fabric: full catalog + scorecard (any regression fails CI) =="
  "${repo_root}/build/bench/scenario_runner" --all \
    --out "${repo_root}/build/BENCH_scenarios.json"
fi

if [[ "${mode}" != "--plain-only" && "${mode}" != "--tsan-only" ]]; then
  echo "== ASan+UBSan build + tier-1 tests =="
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    run_suite "${repo_root}/build-asan" -DGENIO_SANITIZE=address,undefined
  echo "== data-plane crypto bench smoke (ASan+UBSan; every backend seals, opens, tampers and CRCs the 64 B-9 KB corpus against the oracles, so a load or store past a frame's end fails CI; ratio floors not enforced) =="
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-asan/bench/bench_dataplane" --smoke \
    --out "${repo_root}/build-asan/BENCH_dataplane.json"
fi

if [[ "${mode}" != "--plain-only" && "${mode}" != "--sanitize-only" ]]; then
  echo "== TSan build + tier-1 tests =="
  TSAN_OPTIONS=halt_on_error=1 \
    run_suite "${repo_root}/build-tsan" -DGENIO_SANITIZE=thread
  echo "== self-healing bench smoke (TSan) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/bench_self_healing" --smoke \
    --out "${repo_root}/build-tsan/BENCH_selfheal.json"
  echo "== pipeline-throughput bench smoke (TSan) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/bench_pipeline_throughput" --smoke \
    --out "${repo_root}/build-tsan/BENCH_pipeline.json"
  echo "== data-plane crypto bench smoke (TSan; backend and CRC fold identity enforced, ratio floors not) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/bench_dataplane" --smoke \
    --out "${repo_root}/build-tsan/BENCH_dataplane.json"
  echo "== admission-service overload bench smoke (TSan) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/bench_admission_service" --smoke \
    --out "${repo_root}/build-tsan/BENCH_admission.json"
  echo "== discrete-event core bench smoke (TSan; recorded digests still enforced) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/bench_des" --smoke \
    --out "${repo_root}/build-tsan/BENCH_des.json"
  echo "== WOTS+ keygen/sign/verify bench smoke (TSan; lane block, root and signature identity enforced, ratio floor and deferral ceiling not) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/bench_keygen" --smoke \
    --out "${repo_root}/build-tsan/BENCH_keygen.json"
  echo "== SAST precision gate smoke (TSan; recall/FP floors and per-file sharded/serial identity enforced) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/bench_sast_precision" --smoke \
    --out "${repo_root}/build-tsan/BENCH_sast.json"
  echo "== scenario fabric smoke subset (TSan) =="
  TSAN_OPTIONS=halt_on_error=1 \
    "${repo_root}/build-tsan/bench/scenario_runner" --filter smoke \
    --out "${repo_root}/build-tsan/BENCH_scenarios.json"
fi

echo "CI: all suites passed"
