# Run one program and compare its stdout byte for byte with a golden:
#   cmake -DBIN=<program> -DEXPECTED=<golden> -DACTUAL=<out> -P compare_stdout.cmake
# On a mismatch the output is left in ACTUAL and a unified diff is
# printed.
execute_process(COMMAND ${BIN} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    ${EXPECTED} ${ACTUAL} RESULT_VARIABLE differs)
if(differs)
    execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
    message(FATAL_ERROR "${BIN}: stdout differs from ${EXPECTED}; "
        "it is in ${ACTUAL}")
endif()
