# Flight-recorder postmortem end-to-end smoke, run as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DOUT_DIR=<dir> -P postmortem_smoke.cmake
#
# Runs a sweep with one injected-crash cell and one injected-stall cell under
# --progress and asserts the crash-diagnostics contract end to end:
#   - exit 3 and a "progress:" heartbeat on stderr,
#   - both failed cells leave cells/NNN/postmortem.json with the
#     elastisim-postmortem-v2 schema, referenced from sweep.json,
#   - `elastisim postmortem` renders each, naming the dying phase and the
#     cancel reason (for the stalled cell),
#   - the renderer exits non-zero on missing and on wrong-schema input, and
#     names both versions when handed a v1 dump.
cmake_minimum_required(VERSION 3.19)

foreach(var ELASTISIM PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "postmortem_smoke: missing -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

# 1 platform x 1 workload x 2 schedulers x 1 seed = 2 cells. The stall budget
# is short so the injected-stall cell dies in ~2 s; no retries, so each
# failure dumps exactly one attempt's ring.
file(WRITE ${OUT_DIR}/sweep.spec.json "{
  \"platforms\": [\"${PLATFORM}\"],
  \"workloads\": [\"${WORKLOAD}\"],
  \"schedulers\": [\"fcfs\", \"easy-malleable\"],
  \"seeds\": [1],
  \"timeout\": \"120s\",
  \"stall_timeout\": \"2s\",
  \"retry\": {\"max_attempts\": 1}
}")

execute_process(
  COMMAND ${ELASTISIM} sweep ${OUT_DIR}/sweep.spec.json
          --threads 2 --out-dir ${OUT_DIR}/run --progress
          --inject-crash 0 --inject-stall 1
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 3)
  message(FATAL_ERROR "postmortem_smoke: sweep exited ${exit_code} (want 3)\n"
                      "${stdout_text}\n${stderr_text}")
endif()
if(NOT stderr_text MATCHES "progress: [0-9]+/2 cells")
  message(FATAL_ERROR "postmortem_smoke: no --progress heartbeat on stderr:\n"
                      "${stderr_text}")
endif()

# Both failed cells must dump a schema-valid postmortem referenced from
# sweep.json.
file(READ ${OUT_DIR}/run/sweep.json sweep_text)
foreach(cell IN ITEMS 0 1)
  string(JSON ref GET "${sweep_text}" cells ${cell} postmortem)
  if(NOT ref STREQUAL "cells/00${cell}/postmortem.json")
    message(FATAL_ERROR "postmortem_smoke: cell ${cell} postmortem ref is \"${ref}\"")
  endif()
  set(pm_file "${OUT_DIR}/run/${ref}")
  if(NOT EXISTS ${pm_file})
    message(FATAL_ERROR "postmortem_smoke: ${pm_file} was not written")
  endif()
  file(READ ${pm_file} pm_text)
  string(JSON pm_schema GET "${pm_text}" schema)
  if(NOT pm_schema STREQUAL "elastisim-postmortem-v2")
    message(FATAL_ERROR "postmortem_smoke: ${pm_file} schema is \"${pm_schema}\"")
  endif()
  string(JSON pm_cell GET "${pm_text}" context cell)
  if(NOT pm_cell EQUAL ${cell})
    message(FATAL_ERROR "postmortem_smoke: ${pm_file} context.cell is ${pm_cell}")
  endif()
endforeach()

string(JSON crash_cause GET "${sweep_text}" cells 0 status)
if(NOT crash_cause STREQUAL "crashed")
  message(FATAL_ERROR "postmortem_smoke: cell 0 status is ${crash_cause}")
endif()
string(JSON stall_cause GET "${sweep_text}" cells 1 status)
if(NOT stall_cause STREQUAL "stalled")
  message(FATAL_ERROR "postmortem_smoke: cell 1 status is ${stall_cause}")
endif()

# The renderer must decode both dumps and name the dying phase (both injected
# bodies die inside the scheduler phase scope).
foreach(cell IN ITEMS 0 1)
  execute_process(
    COMMAND ${ELASTISIM} postmortem ${OUT_DIR}/run/cells/00${cell}/postmortem.json
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE render_text ERROR_VARIABLE stderr_text)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "postmortem_smoke: renderer exited ${exit_code} for cell "
                        "${cell}\n${render_text}\n${stderr_text}")
  endif()
  if(NOT render_text MATCHES "dying in \"scheduler\"")
    message(FATAL_ERROR "postmortem_smoke: cell ${cell} render does not name the "
                        "dying phase:\n${render_text}")
  endif()
  if(NOT render_text MATCHES "last [0-9]+ events before death")
    message(FATAL_ERROR "postmortem_smoke: cell ${cell} render has no tail table:\n"
                        "${render_text}")
  endif()
endforeach()

# The stalled cell's dump must carry the watchdog's verdict.
execute_process(
  COMMAND ${ELASTISIM} postmortem ${OUT_DIR}/run/cells/001/postmortem.json
  OUTPUT_VARIABLE stall_render ERROR_VARIABLE stderr_text)
if(NOT stall_render MATCHES "cancel reason: stalled")
  message(FATAL_ERROR "postmortem_smoke: stalled cell render lacks the cancel "
                      "reason:\n${stall_render}")
endif()

# --- Renderer hardening: non-zero on missing and wrong-schema input ---------
execute_process(
  COMMAND ${ELASTISIM} postmortem ${OUT_DIR}/does_not_exist.json
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
if(exit_code EQUAL 0)
  message(FATAL_ERROR "postmortem_smoke: renderer accepted a missing file")
endif()

file(WRITE ${OUT_DIR}/wrong.json "{\"schema\": \"elastisim-sweep-v1\"}")
execute_process(
  COMMAND ${ELASTISIM} postmortem ${OUT_DIR}/wrong.json
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
if(exit_code EQUAL 0)
  message(FATAL_ERROR "postmortem_smoke: renderer accepted a wrong-schema file")
endif()
if(NOT stderr_text MATCHES "elastisim-postmortem-v2")
  message(FATAL_ERROR "postmortem_smoke: wrong-schema diagnostic does not name the "
                      "expected schema:\n${stderr_text}")
endif()

file(WRITE ${OUT_DIR}/v1.json "{\"schema\": \"elastisim-postmortem-v1\", \"ring\": {\"records\": []}}")
execute_process(
  COMMAND ${ELASTISIM} postmortem ${OUT_DIR}/v1.json
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
if(exit_code EQUAL 0 OR NOT stderr_text MATCHES "elastisim-postmortem-v1"
   OR NOT stderr_text MATCHES "elastisim-postmortem-v2")
  message(FATAL_ERROR "postmortem_smoke: a v1 dump must fail naming both versions "
                      "(exit ${exit_code}):\n${stderr_text}")
endif()

# --- Single-run interrupt-free sanity: ELSIM_FLIGHT=0 disables dumps --------
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ELSIM_FLIGHT=0
          ${ELASTISIM} sweep ${OUT_DIR}/sweep.spec.json
          --threads 2 --out-dir ${OUT_DIR}/off --inject-crash 0
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 3)
  message(FATAL_ERROR "postmortem_smoke: ELSIM_FLIGHT=0 sweep exited ${exit_code}")
endif()
if(EXISTS "${OUT_DIR}/off/cells/000/postmortem.json")
  message(FATAL_ERROR "postmortem_smoke: ELSIM_FLIGHT=0 still wrote a postmortem")
endif()

message(STATUS "postmortem_smoke: heartbeat, schema-valid referenced dumps, "
               "dying-phase rendering, and renderer hardening all hold")
