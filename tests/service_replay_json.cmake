# Runs nocmap_service_replay on an empty trace and parses the JSON summary it
# writes with CMake's strict JSON reader.
#
#   cmake -DREPLAY=<nocmap_service_replay> -DOUT=<file> \
#         -P service_replay_json.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(COMMAND ${REPLAY} --events 0 --json ${OUT}
  OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nocmap_service_replay exited with ${rc}")
endif()
file(READ ${OUT} text)
string(JSON events GET "${text}" events)
string(JSON mean_type TYPE "${text}" mean_decision_us)
if(NOT events EQUAL 0 OR NOT mean_type STREQUAL "NULL")
  message(FATAL_ERROR "unexpected empty-trace summary:\n${text}")
endif()
