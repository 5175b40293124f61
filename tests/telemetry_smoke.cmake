# End-to-end telemetry smoke test, run as a CTest script:
#   cmake -DELASTISIM=<binary> -DPLATFORM=<json> -DWORKLOAD=<json>
#         -DOUT_DIR=<dir> -P telemetry_smoke.cmake
# Runs the simulator with --telemetry --chrome-trace and validates that both
# emitted files are well-formed JSON with the documented top-level members
# (docs/OBSERVABILITY.md).
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

foreach(var ELASTISIM PLATFORM WORKLOAD OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "telemetry_smoke: missing -D${var}=...")
  endif()
endforeach()

set(trace_file "${OUT_DIR}/chrome_trace.json")
execute_process(
  COMMAND ${ELASTISIM} --platform ${PLATFORM} --workload ${WORKLOAD}
          --out-dir ${OUT_DIR} --telemetry --chrome-trace ${trace_file}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE stdout_text
  ERROR_VARIABLE stderr_text)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: simulator exited ${exit_code}\n"
                      "${stdout_text}\n${stderr_text}")
endif()

# --- telemetry.json ---------------------------------------------------------
file(READ "${OUT_DIR}/telemetry.json" telemetry_text)
string(JSON ignored ERROR_VARIABLE parse_error GET "${telemetry_text}" counters)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: telemetry.json has no counters object: ${parse_error}")
endif()
foreach(member gauges histograms)
  string(JSON ignored ERROR_VARIABLE parse_error GET "${telemetry_text}" ${member})
  if(parse_error)
    message(FATAL_ERROR "telemetry_smoke: telemetry.json missing '${member}': ${parse_error}")
  endif()
endforeach()
# The run processed events, so the engine counter must be present and positive.
string(JSON engine_events ERROR_VARIABLE parse_error
       GET "${telemetry_text}" counters engine.events)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: counters lacks engine.events: ${parse_error}")
endif()
if(engine_events LESS_EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: engine.events is ${engine_events}, expected > 0")
endif()
string(JSON invocations ERROR_VARIABLE parse_error
       GET "${telemetry_text}" counters scheduler.invocations)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: counters lacks scheduler.invocations: ${parse_error}")
endif()
if(invocations LESS_EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: scheduler.invocations is ${invocations}, expected > 0")
endif()

# --- chrome trace -----------------------------------------------------------
file(READ "${trace_file}" trace_text)
string(JSON event_count ERROR_VARIABLE parse_error LENGTH "${trace_text}" traceEvents)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: chrome trace has no traceEvents array: ${parse_error}")
endif()
if(event_count LESS_EQUAL 0)
  message(FATAL_ERROR "telemetry_smoke: traceEvents is empty")
endif()
string(JSON unit ERROR_VARIABLE parse_error GET "${trace_text}" displayTimeUnit)
if(parse_error OR NOT unit STREQUAL "ms")
  message(FATAL_ERROR "telemetry_smoke: displayTimeUnit is '${unit}' (${parse_error})")
endif()
# First event must carry the mandatory trace_event fields.
string(JSON first_phase ERROR_VARIABLE parse_error GET "${trace_text}" traceEvents 0 ph)
if(parse_error)
  message(FATAL_ERROR "telemetry_smoke: traceEvents[0] lacks 'ph': ${parse_error}")
endif()

message(STATUS "telemetry_smoke: ok (${engine_events} events, ${event_count} trace events)")
