# Watchdog smoke, run as a CTest via `cmake -P`:
#   1. run a tiny two-device bench_table5_syn200 pipeline with a device.hang
#      fault (a kernel launch wedges before it runs) under a heartbeat
#      watchdog,
#   2. require the run to finish with an exit code of 0 — the watchdog must
#      convert the hang into an anytime result, not a wedged process,
#   3. validate the trace with tools/check_trace.py and require the
#      watchdog.fired counter series,
#   4. require the run-report JSON to carry the anytime budget verdict.
#
# Expected -D definitions: BENCH (bench executable), PYTHON (python3),
# CHECKER (tools/check_trace.py), WORKDIR (scratch directory).

foreach(var BENCH PYTHON CHECKER WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_watchdog_smoke.cmake: missing -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(trace_json "${WORKDIR}/trace.json")
set(report_json "${WORKDIR}/report.json")

# Every kernel launch marks its device busy and beats the heartbeat when it
# retires.  Over two devices a wave issues ~8 launches (CRC seal, halo
# gather and scatter, row-block csrmv on each device); nth=150 wedges a
# launch of about the 15th of ~32 waves, once the basis holds the k vectors
# an anytime cut needs.  The watchdog cancels the eigensolve and its
# partial Ritz pairs still feed k-means a full assignment.
execute_process(
  COMMAND "${BENCH}"
          --n=400 --blocks=4 --k=4 --baselines=false --devices=2
          --faults=site=device.hang,nth=150
          --watchdog=heartbeat_ms=50,poll_ms=5
          --trace-out=${trace_json}
          --report-out=${report_json}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "bench did not survive the injected hang (rc=${bench_rc})\n"
          "stdout:\n${bench_out}\nstderr:\n${bench_err}")
endif()
foreach(artifact "${trace_json}" "${report_json}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "bench did not write ${artifact}")
  endif()
endforeach()

execute_process(
  COMMAND "${PYTHON}" "${CHECKER}" "${trace_json}"
          --expect-counter watchdog.fired
          --expect-counter budget.anytime_results
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err)
message(STATUS "${check_out}${check_err}")
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "check_trace.py failed (rc=${check_rc})")
endif()

# The run report must record an anytime (partial-but-valid) result with the
# watchdog as the cause.
file(READ "${report_json}" report)
if(NOT report MATCHES "\"watchdog_fired\": *true")
  message(FATAL_ERROR "run report missing watchdog_fired=true")
endif()
if(NOT report MATCHES "\"anytime\": *true")
  message(FATAL_ERROR "run report missing anytime=true")
endif()
message(STATUS "watchdog smoke OK: hang converted to an anytime result")
