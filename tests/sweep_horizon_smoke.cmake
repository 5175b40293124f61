# A sweep cell draws failures over the same horizon as the CLI, run as a
# CTest script:
#   cmake -DELASTISIM=<binary> -DELASTISIM_GEN=<binary> -DPLATFORM=<json>
#         -DOUT_DIR=<dir> -P sweep_horizon_smoke.cmake
#
# The generated workload's last job arrives at t=51,492 s, so the automatic
# horizon (max(1 d, 2 x last submit)) exceeds one day. The CLI run and a
# one-cell sweep with the same fault model and failure seed must write
# byte-identical jobs.csv files.
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM ELASTISIM_GEN PLATFORM OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "sweep_horizon_smoke: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

function(run_or_die name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE exit_code
                  OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "sweep_horizon_smoke: ${name} exited ${exit_code}\n"
                        "${stdout_text}\n${stderr_text}")
  endif()
endfunction()

run_or_die(generator ${ELASTISIM_GEN} --jobs 600 --malleable 0.5 --seed 11
           --out ${OUT_DIR}/workload.json)
run_or_die(cli ${ELASTISIM} --platform ${PLATFORM} --workload ${OUT_DIR}/workload.json
           --scheduler easy --mtbf 6h --repair 20m --failure-seed 5
           --out-dir ${OUT_DIR}/cli)
file(WRITE ${OUT_DIR}/sweep.spec.json "{
  \"platforms\": [\"${PLATFORM}\"],
  \"workloads\": [\"${OUT_DIR}/workload.json\"],
  \"schedulers\": [\"easy\"],
  \"seeds\": [5],
  \"faults\": {\"mtbf\": \"6h\", \"repair\": \"20m\"}
}")
run_or_die(sweep ${ELASTISIM} sweep ${OUT_DIR}/sweep.spec.json --threads 1
           --out-dir ${OUT_DIR}/sweep)

file(SHA256 ${OUT_DIR}/cli/jobs.csv cli_sha)
file(SHA256 ${OUT_DIR}/sweep/cells/000/jobs.csv sweep_sha)
if(NOT cli_sha STREQUAL sweep_sha)
  message(FATAL_ERROR "sweep_horizon_smoke: the sweep cell's jobs.csv differs from "
                      "the CLI's (${sweep_sha} vs ${cli_sha})")
endif()
message(STATUS "sweep_horizon_smoke: CLI and sweep cell jobs.csv match (${cli_sha})")
