# Run TOOL with the single argument ARGS and fail unless it exits with
# status EXPECT:
#   cmake -DTOOL=<path> -DARGS=<arg> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "${EXPECT}")
    message(FATAL_ERROR "'${TOOL} ${ARGS}' exited ${rc}, expected ${EXPECT}")
endif()
