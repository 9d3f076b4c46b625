# Multi-device run report check, run as a CTest via `cmake -P`: a tiny
# bench_table5_syn200 pipeline over two modeled devices writes its run
# report, and tools/check_trace.py --report validates the attribution
# section (present, disciplined site names, per-site sums equal to the
# device counters).  The devices are a transient group the pipeline builds;
# the report reads the caller's context, into which the group's books fold.
#
# Expected -D definitions: BENCH (bench executable), PYTHON (python3),
# CHECKER (tools/check_trace.py), WORKDIR (scratch directory).

foreach(var BENCH PYTHON CHECKER WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_report_check.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(report_json "${WORKDIR}/report.json")
file(REMOVE "${report_json}")

execute_process(
  COMMAND "${BENCH}"
          --n=400 --blocks=4 --k=4 --baselines=false --devices=2
          --report-out=${report_json}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "bench failed (rc=${bench_rc})\nstdout:\n${bench_out}\n"
          "stderr:\n${bench_err}")
endif()
if(NOT EXISTS "${report_json}")
  message(FATAL_ERROR "bench did not write ${report_json}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" --report "${report_json}"
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
message(STATUS "${check_out}${check_err}")
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_trace.py --report failed (rc=${check_rc})")
endif()
