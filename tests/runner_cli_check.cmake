# Runs one binary (rtvirt_runner or a bench) once and checks its exit code
# and combined output:
#   cmake -DRUNNER=<binary> -DARGS="<args>" -DCODE=<exit code> -DMATCH=<regex>
#         -P runner_cli_check.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${RUNNER}" ${args}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code STREQUAL "${CODE}")
  message(FATAL_ERROR "${RUNNER} ${ARGS}: exit ${code}, expected ${CODE}\n${out}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${RUNNER} ${ARGS}: output does not match '${MATCH}'\n${out}")
endif()
