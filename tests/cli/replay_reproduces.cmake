# A failing campaign's printed replay line reproduces it exactly:
#
#   cmake -DTOOL=<tpnet_verify> -DDIR=<work dir> -P replay_reproduces.cmake
#
# Runs a failing sweep with a non-grid option (--length 12) and --json A,
# runs the replay line it prints for seed 1 with --json B, and requires
# seed 1's campaign object to be byte-identical in A and B.
set(work ${DIR}/replay_reproduces)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

execute_process(COMMAND ${TOOL} --campaigns 3 --max-cycles 2000
                        --hook-skip-kills --no-shrink --length 12
                        --json ${work}/a.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "sweep exited '${rc}', expected 1:\n${out}${err}")
endif()
string(REGEX MATCH "replay: tpnet_verify (--replay-seed 1 [^\n]*)" line
       "${out}")
if(NOT line)
    message(FATAL_ERROR "no replay line for seed 1:\n${out}")
endif()
set(replay "${CMAKE_MATCH_1}")
separate_arguments(args UNIX_COMMAND "${replay}")

execute_process(COMMAND ${TOOL} ${args} --json ${work}/b.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
    message(FATAL_ERROR "replay exited '${rc}', expected 1:\n${out}${err}")
endif()

# The campaign object of seed 1, without the separator after it.
function(seed1 path var)
    file(READ ${path} text)
    string(REGEX MATCH "\n    { \"seed\": 1,[^\n]*" obj "${text}")
    if(NOT obj)
        message(FATAL_ERROR "no seed-1 campaign in ${path}")
    endif()
    string(REGEX REPLACE ",$" "" obj "${obj}")
    set(${var} "${obj}" PARENT_SCOPE)
endfunction()
seed1(${work}/a.json a)
seed1(${work}/b.json b)
if(NOT a STREQUAL b)
    message(FATAL_ERROR "the replay ran a different campaign:\n"
            "  sweep  ${a}\n  replay ${b}")
endif()
message(STATUS "replay reproduces seed 1: ${replay}")
