# Malformed numeric flags are usage errors, run as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DOUT_DIR=<dir> -P flag_errors_smoke.cmake
#
# Each bad value must exit 2 with "error: --<flag>: ..." on stderr and leave
# no postmortem (and no run outputs) behind.
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "flag_errors_smoke: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})

# Runs the CLI with the extra arguments after `expected` (a regex).
function(expect_usage_error name expected)
  set(out ${OUT_DIR}/${name})
  execute_process(
    COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${WORKLOAD}
            --out-dir ${out} ${ARGN}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
  if(NOT exit_code EQUAL 2)
    message(FATAL_ERROR "flag_errors_smoke: ${name}: exit ${exit_code} (want 2)\n"
                        "${stdout_text}\n${stderr_text}")
  endif()
  if(NOT stderr_text MATCHES "${expected}")
    message(FATAL_ERROR "flag_errors_smoke: ${name}: stderr does not match "
                        "\"${expected}\":\n${stderr_text}")
  endif()
  if(EXISTS ${out}/postmortem.json OR EXISTS ${out}/summary.json)
    message(FATAL_ERROR "flag_errors_smoke: ${name}: left outputs in ${out}")
  endif()
endfunction()

expect_usage_error(interval "error: --interval: expected a number, got \"abc\""
                   --interval abc)
expect_usage_error(mtbf "error: --mtbf: expected a duration" --mtbf 3x)
expect_usage_error(pod_correlation
                   "error: --pod-correlation: expected a probability in \\[0, 1\\], got \"7\""
                   --mtbf 3h --pod-correlation 7)
expect_usage_error(weibull_shape
                   "error: --weibull-shape: expected a finite number above 0, got \"0\""
                   --mtbf 3h --failure-dist weibull --weibull-shape 0)
expect_usage_error(negative_repair
                   "error: --repair: expected a finite, non-negative duration, got \"-5m\""
                   --mtbf 3h --repair -5m)

message(STATUS "flag_errors_smoke: malformed --interval, --mtbf, --pod-correlation, "
               "--weibull-shape and --repair all exit 2 without a postmortem")
