# Runs one bench or example with no arguments and checks its exit code and
# stdout against a golden file:
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P golden_stdout_check.cmake
# On a mismatch this run's stdout is left at ACTUAL; an intended output change
# re-records the golden file by copying it over.
execute_process(COMMAND "${BIN}" RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(READ "${GOLDEN}" expected)
if(NOT code STREQUAL "0" OR NOT out STREQUAL expected)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "${BIN}: exit ${code} (expected 0); compare its stdout "
          "${ACTUAL} with ${GOLDEN}\n${err}")
endif()
