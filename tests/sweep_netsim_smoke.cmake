# Runs a netsim-enabled campaign through nocmap_sweep and checks that every
# record of its log carries a simulation digest (a null "sim" means the
# scenario skipped the cycle-level stage).
#
#   cmake -DSWEEP=<nocmap_sweep> -DSPEC=<spec.json> -DDIR=<out dir> \
#         -P sweep_netsim_smoke.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE ${DIR})
execute_process(COMMAND ${SWEEP} run ${SPEC} --out ${DIR} --quiet
  OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "nocmap_sweep run exited with ${rc}")
endif()
file(STRINGS ${DIR}/campaign.jsonl lines)
list(POP_FRONT lines header)
list(LENGTH lines records)
if(records EQUAL 0)
  message(FATAL_ERROR "campaign log holds no records")
endif()
foreach(line IN LISTS lines)
  string(JSON sim_type TYPE "${line}" sim)
  if(NOT sim_type STREQUAL "OBJECT")
    message(FATAL_ERROR "record without a simulation:\n${line}")
  endif()
  string(JSON packets GET "${line}" sim packets)
  if(packets LESS_EQUAL 0)
    message(FATAL_ERROR "simulation measured no packets:\n${line}")
  endif()
endforeach()
