# nocmap_service_replay must refuse a --mesh side above 64 before it
# allocates anything: exit 2 (bad usage) with an error that names --mesh.
#
#   cmake -DREPLAY=<nocmap_service_replay> -P service_replay_mesh_bound.cmake
foreach(bad 65 70000)
  execute_process(COMMAND ${REPLAY} --mesh ${bad} --events 1
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--mesh")
    message(FATAL_ERROR "nocmap_service_replay --mesh ${bad} exited with "
                        "${rc} instead of refusing it:\n${out}${err}")
  endif()
endforeach()
