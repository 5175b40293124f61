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

# The batch and sampling flags take the sweep spec's ranges: no negative or
# NaN interval, no NaN overhead, no negative requeue bound, and failure
# seeds below 2^53 like sweep seeds.
set(duration_range "expected a finite, non-negative duration")
expect_usage_error(negative_interval "error: --interval: ${duration_range}, got \"-5\""
                   --scheduler easy --interval -5)
expect_usage_error(nan_interval "error: --interval: ${duration_range}, got \"nan\""
                   --scheduler easy --interval nan)
expect_usage_error(nan_sample_interval
                   "error: --sample-interval: ${duration_range}, got \"nan\""
                   --scheduler easy --sample-interval nan)
expect_usage_error(nan_restart_overhead
                   "error: --restart-overhead: ${duration_range}, got \"nan\""
                   --scheduler easy --failure-policy requeue-restart --mtbf 3h
                   --restart-overhead nan)
expect_usage_error(negative_max_requeues
                   "error: --max-requeues: expected an integer in \\[0, 2147483647\\], got \"-3\""
                   --scheduler easy --max-requeues -3)
expect_usage_error(negative_failure_seed
                   "error: --failure-seed: expected an integer in \\[0, 9007199254740991\\]"
                   --scheduler easy --mtbf 3h --failure-seed -1)

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

# elastisim-gen checks every count and fraction before it generates: a
# negative or out-of-int count, an empty node range, a fraction outside
# [0, 1].
expect_rejected(gen_negative_jobs
                "error: --jobs: expected an integer in \\[0, 2147483647\\], got \"-5\""
                ${ELASTISIM_GEN} --jobs -5)
expect_rejected(gen_zero_min_nodes "error: --min-nodes: expected a positive integer, got \"0\""
                ${ELASTISIM_GEN} --min-nodes 0)
expect_rejected(gen_wrapping_min_nodes "error: --min-nodes: expected an integer in"
                ${ELASTISIM_GEN} --min-nodes 4294967297)
expect_rejected(gen_malleable "error: --malleable: expected a fraction in \\[0, 1\\], got \"2\""
                ${ELASTISIM_GEN} --malleable 2)
expect_rejected(gen_max_iterations "error: --max-iterations: expected an integer no smaller"
                ${ELASTISIM_GEN} --max-iterations -1)
expect_rejected(gen_io_fraction
                "error: --io-fraction: expected a fraction in \\[0, 1\\], got \"-1\""
                ${ELASTISIM_GEN} --io-fraction -1)

message(STATUS "flag_errors_smoke: malformed and out-of-range flags, platform, workload "
               "and sweep files, and bad elastisim-gen flags all exit 2 and write nothing")
