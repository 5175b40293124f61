# Golden sink digests, run as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DGOLDEN_DIR=<tests/golden>
#         -DOUT_DIR=<dir> [-DBLESS=1] -P golden_sinks.cmake
# Runs the CLI on nine fixed scenarios and compares the SHA-256 of every sink
# file plus the exact `counters` object of telemetry.json against the values
# committed in ${GOLDEN_DIR}/expected.txt. Unlike cli_determinism_smoke (run
# vs run), this pins the output itself, so a refactor that changes what a
# sink writes fails here even when it does so deterministically. Every
# scenario runs under --validate and must report that all invariants hold.
#
#   a  requeue-restart under an MTBF failure model with a requeue cap,
#      malleable + evolving + checkpointing jobs, a periodic scheduler timer
#      and a fixed-cadence state sampler; every sink attached.
#   b  --journal without --trace: verdicts must carry trace_seq 0.
#   c  fair-share under plain requeue and the same MTBF failure model, so
#      per-user usage accrues mid-run (finishes, requeues, evolving resizes)
#      and every ranking pass reads it.
#   d-h  fcfs, easy, fcfs-malleable, equal-share and priority under scenario
#      c's failure model, so every built-in policy has a pinned schedule.
#   i  priority on workload_priority.json (priorities 0-5, where the other
#      scenarios' workload sets none) under scenario c's failure model, with
#      trace and journal, so the ranking itself is pinned.
#
# Re-blessing is deliberate: pass -DBLESS=1 to rewrite expected.txt from the
# current binary, and say why in CHANGES.md.
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

foreach(var ELASTISIM PLATFORM GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_sinks: missing -D${var}=...")
  endif()
endforeach()

set(workload "${GOLDEN_DIR}/workload.json")
set(workload_i "${GOLDEN_DIR}/workload_priority.json")
set(expected_file "${GOLDEN_DIR}/expected.txt")

set(args_a --scheduler easy-malleable
           --failure-policy requeue-restart --restart-overhead 30s --max-requeues 2
           --mtbf 3h --repair 20m --failure-seed 5
           --interval 600 --sample-interval 300
           --trace --telemetry --journal ${OUT_DIR}/a/journal.jsonl)
set(files_a jobs.csv trace.csv timeseries.csv journal.jsonl)
set(args_b --scheduler conservative --telemetry --journal ${OUT_DIR}/b/journal.jsonl)
set(files_b jobs.csv journal.jsonl)
set(args_c --scheduler fair-share --failure-policy requeue
           --mtbf 3h --repair 20m --failure-seed 5
           --trace --telemetry --journal ${OUT_DIR}/c/journal.jsonl)
set(files_c jobs.csv trace.csv journal.jsonl)
set(policy_d fcfs)
set(policy_e easy)
set(policy_f fcfs-malleable)
set(policy_g equal-share)
set(policy_h priority)
foreach(scenario IN ITEMS d e f g h)
  set(args_${scenario} --scheduler ${policy_${scenario}} --failure-policy requeue
                       --mtbf 3h --repair 20m --failure-seed 5
                       --telemetry --journal ${OUT_DIR}/${scenario}/journal.jsonl)
  set(files_${scenario} jobs.csv journal.jsonl)
endforeach()
set(args_i --scheduler priority --failure-policy requeue
           --mtbf 3h --repair 20m --failure-seed 5
           --trace --telemetry --journal ${OUT_DIR}/i/journal.jsonl)
set(files_i jobs.csv trace.csv journal.jsonl)

# "name=value" pairs of telemetry.json's counters object, in file order.
function(counters_line telemetry_file out_var)
  file(READ ${telemetry_file} text)
  string(JSON count LENGTH "${text}" counters)
  set(pairs)
  if(count GREATER 0)
    math(EXPR last "${count} - 1")
    foreach(i RANGE ${last})
      string(JSON name MEMBER "${text}" counters ${i})
      string(JSON value GET "${text}" counters ${name})
      list(APPEND pairs "${name}=${value}")
    endforeach()
  endif()
  string(REPLACE ";" "," pairs "${pairs}")
  set(${out_var} "${pairs}" PARENT_SCOPE)
endfunction()

set(actual)
foreach(scenario IN ITEMS a b c d e f g h i)
  set(run_dir "${OUT_DIR}/${scenario}")
  set(scenario_workload "${workload}")
  if(DEFINED workload_${scenario})
    set(scenario_workload "${workload_${scenario}}")
  endif()
  file(REMOVE_RECURSE ${run_dir})
  file(MAKE_DIRECTORY ${run_dir})
  execute_process(
    COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${scenario_workload}
            --out-dir ${run_dir} --validate ${args_${scenario}}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "golden_sinks: scenario ${scenario} exited ${exit_code}\n"
                        "${stdout_text}\n${stderr_text}")
  endif()
  if(NOT stdout_text MATCHES "all invariants hold")
    message(FATAL_ERROR "golden_sinks: scenario ${scenario} did not report "
                        "\"all invariants hold\"\n${stdout_text}")
  endif()
  foreach(sink IN LISTS files_${scenario})
    if(NOT EXISTS ${run_dir}/${sink})
      message(FATAL_ERROR "golden_sinks: scenario ${scenario} wrote no ${sink}")
    endif()
    file(SHA256 ${run_dir}/${sink} digest)
    string(APPEND actual "${scenario}/${sink} ${digest}\n")
  endforeach()
  counters_line(${run_dir}/telemetry.json counters)
  string(APPEND actual "${scenario}/counters ${counters}\n")
endforeach()

if(BLESS)
  file(WRITE ${expected_file} "${actual}")
  message(STATUS "golden_sinks: blessed ${expected_file}")
  return()
endif()

if(NOT EXISTS ${expected_file})
  message(FATAL_ERROR "golden_sinks: ${expected_file} missing; run with -DBLESS=1")
endif()
file(READ ${expected_file} expected)
if(NOT actual STREQUAL expected)
  string(REPLACE "\n" ";" expected_lines "${expected}")
  string(REPLACE "\n" ";" actual_lines "${actual}")
  set(report)
  foreach(line IN LISTS actual_lines)
    if(line AND NOT line IN_LIST expected_lines)
      string(REGEX MATCH "^[^ ]+" key "${line}")
      set(want "<none>")
      foreach(candidate IN LISTS expected_lines)
        if(candidate MATCHES "^${key} ")
          set(want "${candidate}")
        endif()
      endforeach()
      string(APPEND report "  expected: ${want}\n  actual:   ${line}\n")
    endif()
  endforeach()
  message(FATAL_ERROR "golden_sinks: sink output drifted from ${expected_file}\n${report}"
                      "Re-bless only for an intended output change (-DBLESS=1), "
                      "with a CHANGES.md line.")
endif()
message(STATUS "golden_sinks: all sink digests and telemetry counters match")
