# Perf regression gate, run as a CTest via `cmake -P`:
#   1. re-run bench_spmv_balance, bench_service, and bench_scaling_devices
#      with the exact pinned flags the committed baselines in
#      bench/baselines/ were captured with,
#   2. judge each fresh metrics snapshot against its baseline with
#      tools/check_bench_regression.py under the per-metric tolerances in
#      tools/bench_tolerances.json — all suites must pass,
#   3. self-test the gate: re-judge the fresh spmv snapshot with
#      --degrade spmv.wave_max_nnz=2.0, and judge the fresh service snapshot
#      against a copy of its baseline with one injected key the program does
#      not emit; require that the checker FAILS both times (a gate that
#      cannot fail protects nothing).
#
# Expected -D definitions: SPMV_BENCH (bench_spmv_balance), SERVICE_BENCH
# (bench_service), SCALING_BENCH (bench_scaling_devices), PYTHON (python3),
# CHECKER (check_bench_regression.py), TOLERANCES (bench_tolerances.json),
# BASELINES (bench/baselines dir), WORKDIR (scratch directory).

foreach(var SPMV_BENCH SERVICE_BENCH SCALING_BENCH PYTHON CHECKER TOLERANCES
            BASELINES WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_perf_regression.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(spmv_fresh "${WORKDIR}/fresh_spmv_balance.json")
set(service_fresh "${WORKDIR}/fresh_service.json")
set(scaling_fresh "${WORKDIR}/fresh_scaling_devices.json")

# Flags here MUST match the "pinned flags" comment in the tolerances file;
# the gated metrics are deterministic only for these exact inputs.
execute_process(
  COMMAND "${SPMV_BENCH}" --n=4000 --reps=5 --workers=8
          --metrics-out=${spmv_fresh}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_spmv_balance failed (rc=${rc})\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${SERVICE_BENCH}" --jobs=12 --scale=0.5 --service-workers=2
          --workers=8 --metrics-out=${service_fresh}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_service failed (rc=${rc})\n${out}\n${err}")
endif()

execute_process(
  COMMAND "${SCALING_BENCH}" --n=8192 --k=16 --max-devices=4
          --metrics-out=${scaling_fresh}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "bench_scaling_devices failed (rc=${rc})\n${out}\n${err}")
endif()

foreach(suite_pair
        "spmv_balance|${spmv_fresh}|BENCH_spmv_balance.json"
        "service|${service_fresh}|BENCH_service.json"
        "scaling_devices|${scaling_fresh}|BENCH_scaling_devices.json")
  string(REPLACE "|" ";" parts "${suite_pair}")
  list(GET parts 0 suite)
  list(GET parts 1 fresh)
  list(GET parts 2 baseline)
  execute_process(
    COMMAND "${PYTHON}" "${CHECKER}" --suite ${suite}
            --baseline "${BASELINES}/${baseline}" --fresh "${fresh}"
            --tolerances "${TOLERANCES}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  message(STATUS "${out}${err}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "suite '${suite}' regressed (rc=${rc})")
  endif()
endforeach()

# Gate self-test: a 2x-degraded balance gauge must fail the lower_better
# tolerance (rel_tol 0.25).
execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" --suite spmv_balance
          --baseline "${BASELINES}/BENCH_spmv_balance.json"
          --fresh "${spmv_fresh}" --tolerances "${TOLERANCES}"
          --degrade spmv.wave_max_nnz=2.0
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message(STATUS "${out}${err}")
if(rc EQUAL 0)
  message(FATAL_ERROR "gate self-test failed: a 2x-degraded "
          "spmv.wave_max_nnz passed the regression check")
endif()

# Gate self-test: a baseline key absent from the fresh snapshot (a metric the
# program stopped emitting) must fail the check by name.
file(READ "${BASELINES}/BENCH_service.json" service_baseline)
string(JSON stale_baseline SET "${service_baseline}" counters
       "selftest.stale_counter" "1")
set(stale_baseline_file "${WORKDIR}/stale_service_baseline.json")
file(WRITE "${stale_baseline_file}" "${stale_baseline}")
execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" --suite service
          --baseline "${stale_baseline_file}" --fresh "${service_fresh}"
          --tolerances "${TOLERANCES}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message(STATUS "${out}${err}")
if(rc EQUAL 0 OR NOT "${out}${err}" MATCHES "selftest\\.stale_counter")
  message(FATAL_ERROR "gate self-test failed: a baseline key missing from "
          "the fresh snapshot passed the regression check")
endif()
message(STATUS "perf regression gate OK: all suites within tolerance and "
        "both self-tests fail as required")
