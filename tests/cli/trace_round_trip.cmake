# Record a trace, replay its diagram and check it, all through the CLI:
#   cmake -DTOOL=<tpnet_trace> -DDIR=<work dir> -P trace_round_trip.cmake
# Replay must re-compute the digest record printed, and check must pass
# the VC-balance and Section 2.2 scout-gap properties.
set(trace ${DIR}/round_trip.trace)
execute_process(COMMAND ${TOOL} --seed 7 record --scenario sr-k3
                        --out ${trace}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
string(REGEX MATCH "digest [0-9a-f]+" digest "${out}")
if(NOT rc EQUAL 0 OR NOT digest)
    message(FATAL_ERROR "record exited ${rc}:\n${out}")
endif()

execute_process(COMMAND ${TOOL} replay --in ${trace}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "link  0 \\|[^\n]*H"
   OR NOT out MATCHES "${digest}\n")
    message(FATAL_ERROR "replay exited ${rc}, expected ${digest}:\n${out}")
endif()

execute_process(COMMAND ${TOOL} check --in ${trace} --scout-k 3
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "vc-balance: ok"
   OR NOT out MATCHES "scout-gap \\(K=3\\): ok")
    message(FATAL_ERROR "check exited ${rc}:\n${out}")
endif()
