#!/usr/bin/env bash
# Sanitizer pass over the concurrency-heavy parts of the tree: the device
# worker pools every kernel launch fans out to, the service executors with
# their per-job cancellation governors (bound per thread and propagated into
# pool workers), the observability layer, and the full pipelines that drive
# them at several device and worker counts.
# `address` builds ASan + UBSan.  Usage:
#
#   tools/check_sanitize.sh [thread|address] [build-dir]
#
# Defaults to a TSan build in build-threadsan/.  Run it on at least 4 cores:
# races only show when the workers really run in parallel.  Exits non-zero
# if the build or any sanitized test fails.
set -euo pipefail

SANITIZER="${1:-thread}"
BUILD_DIR="${2:-build-${SANITIZER}san}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

case "${SANITIZER}" in
  thread|address) ;;
  *)
    echo "usage: $0 [thread|address] [build-dir]" >&2
    exit 2
    ;;
esac

# Everything that crosses threads plus the tests that drive full
# pipelines through it, and the observability layer (trace recorder /
# metrics registry record from worker threads concurrently).
# test_balance and test_hblas exercise the merge-path balanced SpMV / SpMM
# kernels and the threaded level-2 hblas paths across worker counts;
# test_powerlaw feeds them.  test_laplacian runs Algorithm 2's merge-path
# degree pass, test_rci lanczos::rci_loop (the one loop every eigensolve
# runs, polling an armed governor) and test_lanczos the CGS2 sweeps and
# thick restart whose basis products fan out over the pool.  test_kmeans
# and test_seeding drive the k-means group sweep across device and worker
# counts.  test_spmv runs the counting-sort coo2csr launch (each worker
# scans the whole COO and writes only its own rows) and test_graph_build
# the shared Algorithm 1 similarity kernel, both on the pool.
TESTS=(
  test_thread_pool
  test_stage_clock
  test_device
  test_device_algorithms
  test_spectral_pipeline
  test_trace
  test_metrics_registry
  test_attribution
  test_fault_injection
  test_degradation
  test_irlm_checkpoint
  test_cancel
  test_budget_anytime
  test_service
  test_result_cache
  test_device_group
  test_sharded_differential
  test_sdc
  test_hblas
  test_balance
  test_powerlaw
  test_kmeans
  test_seeding
  test_laplacian
  test_rci
  test_lanczos
  test_spmv
  test_graph_build
)

echo "== configuring ${SANITIZER}-sanitized build in ${BUILD_DIR} =="
cmake -S "${ROOT}" -B "${ROOT}/${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFASTSC_SANITIZE="${SANITIZER}"

targets=("${TESTS[@]}")
echo "== building ${targets[*]} =="
cmake --build "${ROOT}/${BUILD_DIR}" -j "$(nproc)" --target "${targets[@]}"

status=0
for t in "${TESTS[@]}"; do
  echo "== running ${t} under ${SANITIZER} sanitizer =="
  if ! "${ROOT}/${BUILD_DIR}/tests/${t}"; then
    echo "!! ${t} FAILED" >&2
    status=1
  fi
done

if [ "${status}" -eq 0 ]; then
  echo "== all sanitized tests passed =="
fi
exit "${status}"
