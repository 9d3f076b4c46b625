# Multi-device run report and trace check, run as a CTest via `cmake -P`:
#   1. a tiny bench_table5_syn200 pipeline over two modeled devices writes
#      its run report, and tools/check_trace.py --report validates the
#      attribution section (present, disciplined site names, per-site sums
#      equal to the device counters).  Device 0 is the bench's context and
#      device 1 its peer; the report covers both devices' books where they
#      ran.
#   2. a tiny two-device points-mode bench_table3_dti run writes a trace,
#      and tools/check_trace.py checks that each device's virtual-timeline
#      tracks stay disjoint: Algorithm 1 runs on device 0, the same context
#      and timeline as the rest of device 0's work.
#
# Expected -D definitions: BENCH (bench_table5_syn200 executable),
# DTI_BENCH (bench_table3_dti executable), PYTHON (python3), CHECKER
# (tools/check_trace.py), WORKDIR (scratch directory).

foreach(var BENCH DTI_BENCH PYTHON CHECKER WORKDIR)
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

set(trace_json "${WORKDIR}/dti_trace.json")
file(REMOVE "${trace_json}")
execute_process(
  COMMAND "${DTI_BENCH}"
          --side=10 --k=8 --baselines=false --devices=2
          --trace-out=${trace_json}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "dti bench failed (rc=${bench_rc})\nstdout:\n${bench_out}\n"
          "stderr:\n${bench_err}")
endif()
if(NOT EXISTS "${trace_json}")
  message(FATAL_ERROR "dti bench did not write ${trace_json}")
endif()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${trace_json}"
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
message(STATUS "${check_out}${check_err}")
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_trace.py on the 2-device dti trace failed "
                      "(rc=${check_rc})")
endif()
