# Replays a saved failure trace, as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DTRACE=<json> -DEXPECTED_JOBS=<csv> -DOUT_DIR=<dir>
#         -P failure_trace_replay.cmake
#
# Runs the CLI on TRACE with the failure policy of the run that saved it
# (cli_failure_injection) and requires a byte-identical jobs.csv.
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM PLATFORM WORKLOAD TRACE EXPECTED_JOBS OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "failure_trace_replay: missing -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${WORKLOAD}
          --failure-trace ${TRACE}
          --failure-policy requeue-restart --restart-overhead 30s
          --out-dir ${OUT_DIR}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "failure_trace_replay: exit ${exit_code}\n${stdout_text}\n${stderr_text}")
endif()
file(SHA256 ${EXPECTED_JOBS} expected)
file(SHA256 ${OUT_DIR}/jobs.csv actual)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "failure_trace_replay: replayed jobs.csv (${actual}) differs from "
                      "the generating run's ${EXPECTED_JOBS} (${expected})")
endif()
message(STATUS "failure_trace_replay: replayed jobs.csv matches the generating run")
