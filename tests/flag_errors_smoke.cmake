# Malformed flags and malformed input files are usage errors, run as a CTest
# script:
#   cmake -DELASTISIM=<binary> -DELASTISIM_GEN=<binary> -DPLATFORM=<json>
#         -DWORKLOAD=<json> -DOUT_DIR=<dir> -P flag_errors_smoke.cmake
#
# Each bad value must exit 2 with "error: --<flag>: ..." (or the unknown
# flag, or the file and JSON path of the bad member) on stderr and leave no
# postmortem, run outputs, sweep results or generated workload behind.
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM ELASTISIM_GEN PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "flag_errors_smoke: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

# Runs the command after `expected` (a regex) in <OUT_DIR>/<name>.cwd; the
# command's --out-dir, if any, is <OUT_DIR>/<name>.
function(expect_rejected name expected)
  set(cwd ${OUT_DIR}/${name}.cwd)
  file(MAKE_DIRECTORY ${cwd})
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY ${cwd}
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
  file(GLOB_RECURSE left ${cwd}/* ${OUT_DIR}/${name}/*)
  if(left)
    message(FATAL_ERROR "flag_errors_smoke: ${name}: left outputs: ${left}")
  endif()
endfunction()

# Runs the CLI on the given platform and workload with the extra arguments.
function(expect_usage_error name expected)
  expect_rejected(${name} "${expected}" ${ELASTISIM} --platform ${PLATFORM}
                  --workload ${WORKLOAD} --out-dir ${OUT_DIR}/${name} ${ARGN})
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

# Input files are read strictly: a fractional node count and a misspelled
# job member fail at their JSON path.
file(READ ${PLATFORM} platform_json)
string(JSON fractional_nodes SET "${platform_json}" nodes 12.7)
file(WRITE ${OUT_DIR}/fractional_nodes.json "${fractional_nodes}")
expect_rejected(fractional_nodes
                "fractional_nodes\\.json at \\$\\.nodes: expected a positive integer"
                ${ELASTISIM} --platform ${OUT_DIR}/fractional_nodes.json
                --workload ${WORKLOAD} --out-dir ${OUT_DIR}/fractional_nodes)
file(READ ${WORKLOAD} workload_json)
string(JSON walltime_typo SET "${workload_json}" jobs 1 walltime 5)
file(WRITE ${OUT_DIR}/walltime_typo.json "${walltime_typo}")
expect_rejected(walltime_typo
                "walltime_typo\\.json at \\$\\.jobs\\[1\\]\\.walltime: expected a known key"
                ${ELASTISIM} --platform ${PLATFORM} --workload ${OUT_DIR}/walltime_typo.json
                --out-dir ${OUT_DIR}/walltime_typo)

# Sweep specs: a string Weibull shape, and a seed above 2^53 - 1 that a JSON
# number cannot hold exactly.
file(WRITE ${OUT_DIR}/weibull_string.json "{
  \"platforms\": [\"${PLATFORM}\"], \"workloads\": [\"${WORKLOAD}\"],
  \"faults\": {\"mtbf\": \"6h\", \"failure_dist\": \"weibull\", \"weibull_shape\": \"2\"}
}")
expect_rejected(weibull_string
                "weibull_string\\.json at \\$\\.faults\\.weibull_shape: expected a number"
                ${ELASTISIM} sweep ${OUT_DIR}/weibull_string.json --threads 1
                --out-dir ${OUT_DIR}/weibull_string)
file(WRITE ${OUT_DIR}/big_seed.json "{
  \"platforms\": [\"${PLATFORM}\"], \"workloads\": [\"${WORKLOAD}\"],
  \"seeds\": [9007199254740993]
}")
set(seed_bound "expected a non-negative integer below 2\\^53")
expect_rejected(big_seed "big_seed\\.json at \\$\\.seeds\\[0\\]: ${seed_bound}"
                ${ELASTISIM} sweep ${OUT_DIR}/big_seed.json --threads 1
                --out-dir ${OUT_DIR}/big_seed)

# elastisim-gen rejects an unknown flag before it generates or writes
# anything.
expect_rejected(gen_unknown_flag "error: unknown flag --jobz \\(did you mean --jobs\\?\\)"
                ${ELASTISIM_GEN} --jobz 5)

message(STATUS "flag_errors_smoke: malformed flags, platform, workload and sweep files, "
               "and unknown elastisim-gen flags all exit 2 and write nothing")
