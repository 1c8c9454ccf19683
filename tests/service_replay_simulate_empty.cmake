# Runs nocmap_service_replay --simulate on a trace whose two events leave the
# 4x4 chip empty: the replay must skip the simulation, say so, and exit 0.
#
#   cmake -DREPLAY=<nocmap_service_replay> \
#         -P service_replay_simulate_empty.cmake
execute_process(COMMAND ${REPLAY} --mesh 4 --events 2 --simulate
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nocmap_service_replay exited with ${rc}:\n${err}")
endif()
string(FIND "${out}" "(snapshot has no resident traffic to simulate)" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no empty-snapshot notice in:\n${out}")
endif()
