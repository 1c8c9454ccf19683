# Drives nocmap_cli through both of its CSV formats: write a sample
# workload, map it and save the mapping, then evaluate the saved mapping.
# Every step must exit 0, and the last two must print the same max-APL line.
# A negative latency-model override, and one so large that the model's sums
# overflow, must be refused: exit 1 with an error that names the parameter.
# So must a --mesh side above 64, before anything is allocated. --help prints
# the usage and exits 0; a bare --sample prints the usage instead of opening
# a file named after the flag.
#
#   cmake -DCLI=<nocmap_cli> -DDIR=<scratch dir> -P nocmap_cli_roundtrip.cmake
cmake_minimum_required(VERSION 3.16)

file(MAKE_DIRECTORY ${DIR})
set(workload ${DIR}/w.csv)
set(mapping ${DIR}/m.csv)

function(run_cli out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " args "${ARGN}")
    message(FATAL_ERROR "nocmap_cli ${args} exited with ${rc}:\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_cli(ignored --sample ${workload})
run_cli(solved ${workload} --output ${mapping})
run_cli(loaded ${workload} --mapping ${mapping})

foreach(bad -5 1e308)
  execute_process(COMMAND ${CLI} ${workload} --td_q ${bad}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "td_q")
    message(FATAL_ERROR "nocmap_cli --td_q ${bad} exited with ${rc} instead "
                        "of refusing it:\n${out}${err}")
  endif()
endforeach()

foreach(bad 65 70000)
  execute_process(COMMAND ${CLI} ${workload} --mesh ${bad}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "--mesh")
    message(FATAL_ERROR "nocmap_cli --mesh ${bad} exited with ${rc} instead "
                        "of refusing it:\n${out}${err}")
  endif()
endforeach()

run_cli(help --help)
if(NOT help MATCHES "usage:")
  message(FATAL_ERROR "nocmap_cli --help printed no usage:\n${help}")
endif()
execute_process(COMMAND ${CLI} --sample
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "usage:")
  message(FATAL_ERROR "a bare nocmap_cli --sample exited with ${rc} instead "
                      "of printing the usage:\n${out}${err}")
endif()

string(REGEX MATCH "max-APL [^\n]*" solved_line "${solved}")
string(REGEX MATCH "max-APL [^\n]*" loaded_line "${loaded}")
if(solved_line STREQUAL "" OR NOT solved_line STREQUAL loaded_line)
  message(FATAL_ERROR "max-APL differs between the solved and the loaded "
                      "mapping:\n  '${solved_line}'\n  '${loaded_line}'")
endif()
