# Run a seeded-bug campaign sweep and pass only when the bug is named:
#
#   cmake -DTOOL=<tpnet_verify> "-DARGS=<arg;arg;...>" [-DALLOW_PANIC=ON]
#         -P expect_detection.cmake
#
# Passes on exit 1 with a "campaign(s) FAILED" line (a checker's verdict).
# With ALLOW_PANIC it also passes on an abort whose output carries the
# simulator's "panic:" line (an internal check that fires first). Fails
# on exit 0, on any AddressSanitizer or UBSan report, and on any other
# status.
execute_process(COMMAND ${TOOL} ${ARGS}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
set(all "${out}${err}")
if(all MATCHES "ERROR: AddressSanitizer|runtime error:")
    message(FATAL_ERROR "sanitizer report, not a detection:\n${all}")
endif()
if(rc STREQUAL "0")
    message(FATAL_ERROR "seeded bug went undetected:\n${out}")
endif()
if(rc STREQUAL "1" AND out MATCHES "campaign\\(s\\) FAILED")
    string(REGEX MATCH "[^\n]*campaign\\(s\\) FAILED" line "${out}")
    message(STATUS "detected: ${line}")
    return()
endif()
if(ALLOW_PANIC AND rc MATCHES "aborted|^134$" AND all MATCHES "panic: ")
    string(REGEX MATCH "panic: [^\n]*" line "${all}")
    message(STATUS "detected by a simulator panic: ${line}")
    return()
endif()
message(FATAL_ERROR "exit '${rc}' names no detection:\n${all}")
