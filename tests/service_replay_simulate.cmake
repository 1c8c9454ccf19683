# Runs nocmap_service_replay with --simulate and checks that its JSON summary
# carries a measured simulation of the final placement.
#
#   cmake -DREPLAY=<nocmap_service_replay> -DOUT=<file> \
#         -P service_replay_simulate.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

execute_process(COMMAND ${REPLAY} --events 500 --simulate --json ${OUT}
  OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nocmap_service_replay exited with ${rc}")
endif()
file(READ ${OUT} text)
string(JSON packets GET "${text}" sim_packets_measured)
string(JSON g_apl GET "${text}" sim_g_apl)
string(JSON max_apl GET "${text}" sim_max_apl)
if(packets LESS_EQUAL 0 OR NOT g_apl GREATER 0 OR max_apl LESS g_apl)
  message(FATAL_ERROR "unexpected --simulate summary:\n${text}")
endif()
