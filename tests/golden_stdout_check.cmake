# Runs one bench or example with no arguments and checks its exit code and
# stdout against a golden file:
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P golden_stdout_check.cmake
# The RTVIRT_* variables the benches read are cleared first, so a developer's
# environment cannot change what they print. On a mismatch this run's stdout
# is left at ACTUAL; an intended output change re-records the golden file by
# copying it over.
foreach(var RTVIRT_REPORT_ALLOC RTVIRT_SLO_SEEDS RTVIRT_SLO_JOBS RTVIRT_SOAK_SEEDS
            RTVIRT_SOAK_JOBS RTVIRT_CLUSTER_SOAK_SEEDS RTVIRT_CLUSTER_SOAK_JOBS)
  unset(ENV{${var}})
endforeach()
execute_process(COMMAND "${BIN}" RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(READ "${GOLDEN}" expected)
if(NOT code STREQUAL "0" OR NOT out STREQUAL expected)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "${BIN}: exit ${code} (expected 0); compare its stdout "
          "${ACTUAL} with ${GOLDEN}\n${err}")
endif()
