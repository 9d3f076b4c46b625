# End-to-end trace validation, run as a CTest via `cmake -P`:
#   1. run a tiny bench_table5_syn200 pipeline with --trace-out/--metrics-out
#      and a deterministic transient-fault plan on the h2d copy site (single
#      clause: execute_process splits list arguments on ';'),
#   2. validate the trace JSON with tools/check_trace.py (each device's
#      virtual link and compute spans, merged, pairwise disjoint), requiring
#      the fault.transfer_retry counter series the retried faults must emit,
#      and validating the run report's attribution section (site-name
#      discipline, per-site sums vs device counters),
#   3. self-test the serial-device check: a synthetic trace whose device-0
#      h2d copy [0,10) us overlaps a kernel [5,15) us must be rejected.
#
# Expected -D definitions: BENCH (bench executable), PYTHON (python3),
# CHECKER (tools/check_trace.py), WORKDIR (scratch directory).

foreach(var BENCH PYTHON CHECKER WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_trace_check.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(trace_json "${WORKDIR}/trace.json")
set(metrics_json "${WORKDIR}/metrics.json")
set(report_json "${WORKDIR}/report.json")

execute_process(
  COMMAND "${BENCH}"
          --n=400 --blocks=4 --k=4 --baselines=false
          --faults=site=copy.h2d,nth=2,count=2
          --trace-out=${trace_json}
          --metrics-out=${metrics_json}
          --report-out=${report_json}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "bench failed (rc=${bench_rc})\nstdout:\n${bench_out}\n"
          "stderr:\n${bench_err}")
endif()
foreach(artifact "${trace_json}" "${metrics_json}" "${report_json}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "bench did not write ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${trace_json}"
          --metrics "${metrics_json}"
          --expect-counter fault.transfer_retry
          --report "${report_json}"
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
message(STATUS "${check_out}${check_err}")
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_trace.py failed (rc=${check_rc})")
endif()

# A copy and a kernel in flight at once on one device: each track alone is
# disjoint, but the device is not serial, so the checker must refuse it.
set(overlap_json "${WORKDIR}/overlapping_device.json")
file(WRITE "${overlap_json}" [=[
{"traceEvents":[
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"device (virtual timeline)"}},
{"name":"h2d","cat":"transfer","ph":"X","ts":0,"dur":10,"pid":2,"tid":1},
{"name":"kernel","cat":"kernel","ph":"X","ts":5,"dur":10,"pid":2,"tid":2}
]}
]=])
execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${overlap_json}"
  RESULT_VARIABLE self_rc
  OUTPUT_VARIABLE self_out
  ERROR_VARIABLE self_err)
if(self_rc EQUAL 0)
  message(FATAL_ERROR
          "check_trace.py accepted a device whose copy and kernel overlap\n"
          "${self_out}${self_err}")
endif()
if(NOT self_err MATCHES "overlaps")
  message(FATAL_ERROR
          "check_trace.py rejected the overlapping trace for another "
          "reason:\n${self_out}${self_err}")
endif()
message(STATUS "serial-device self-test OK: ${self_err}")
