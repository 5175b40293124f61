# Failure traces are strict, and a frozen queue ends the run, as a CTest
# script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DOUT_DIR=<dir> -P failure_trace_smoke.cmake
#
# Each malformed trace must exit 2 naming the file and the JSON path of the
# bad member, and leave no run outputs behind. Then a 64-node job whose node
# fails for good (it can never restart) must end the run with exit 1 under
# the periodic scheduler timer and under the sampler timer: neither timer may
# keep a run alive once nothing else is pending.
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "failure_trace_smoke: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

# Writes `json` as trace <name> and expects exit 2 with `path` (a regex) on
# stderr.
function(expect_bad_trace name path json)
  set(trace ${OUT_DIR}/${name}.json)
  set(out ${OUT_DIR}/${name})
  file(WRITE ${trace} "${json}")
  execute_process(
    COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${WORKLOAD}
            --failure-trace ${trace} --out-dir ${out}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
  if(NOT exit_code EQUAL 2)
    message(FATAL_ERROR "failure_trace_smoke: ${name}: exit ${exit_code} (want 2)\n"
                        "${stdout_text}\n${stderr_text}")
  endif()
  if(NOT stderr_text MATCHES "${name}\\.json at ${path}:")
    message(FATAL_ERROR "failure_trace_smoke: ${name}: stderr does not name "
                        "${name}.json at ${path}:\n${stderr_text}")
  endif()
  if(EXISTS ${out})
    message(FATAL_ERROR "failure_trace_smoke: ${name}: left outputs in ${out}")
  endif()
endfunction()

expect_bad_trace(wrong_key "\\$\\.failures" [[{"failure": [{"node": 1, "fail": 5}]}]])
expect_bad_trace(not_object "\\$\\.failures\\[0\\]" [[{"failures": [3]}]])
expect_bad_trace(no_node "\\$\\.failures\\[0\\]\\.node" [[{"failures": [{"fail": 5}]}]])
expect_bad_trace(negative_node "\\$\\.failures\\[0\\]\\.node"
                 [[{"failures": [{"node": -3, "fail": 5}]}]])
expect_bad_trace(outside_node "\\$\\.failures\\[1\\]\\.node"
                 [[{"failures": [{"node": 1, "fail": 5}, {"node": 64, "fail": 5}]}]])
expect_bad_trace(no_fail "\\$\\.failures\\[0\\]\\.fail" [[{"failures": [{"node": 2}]}]])
expect_bad_trace(early_repair "\\$\\.failures\\[0\\]\\.repair"
                 [[{"failures": [{"node": 1, "fail": 5, "repair": 2}]}]])

# One 64-node rigid job (the whole platform) whose node 0 fails at t=1 and is
# never repaired: the requeued job is stuck for good.
set(stuck_workload ${OUT_DIR}/stuck_workload.json)
file(WRITE ${stuck_workload} [=[{"jobs": [{"id": 1, "type": "rigid", "submit_time": 0,
  "requested_nodes": 64, "application": {"phases": [{"name": "solve", "iterations": 1,
  "groups": [[{"name": "work", "type": "compute", "work": 1e16}]]}]}}]}]=])
set(node0_trace ${OUT_DIR}/node0_fails.json)
file(WRITE ${node0_trace} [[{"failures": [{"node": 0, "fail": 1}]}]])
foreach(timer interval sample-interval)
  execute_process(
    COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${stuck_workload}
            --failure-trace ${node0_trace} --${timer} 300 --out-dir ${OUT_DIR}/frozen_${timer}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text
    TIMEOUT 60)
  if(NOT exit_code EQUAL 1 OR NOT stderr_text MATCHES "never completed.*job ids 1")
    message(FATAL_ERROR "failure_trace_smoke: frozen queue under --${timer}: exit "
                        "${exit_code} (want 1, naming stuck job 1)\n${stderr_text}")
  endif()
endforeach()

message(STATUS "failure_trace_smoke: malformed traces exit 2 naming the member; "
               "a frozen queue ends under both timers")
