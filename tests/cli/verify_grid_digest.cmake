# Byte-identity gate of the verify grid: every grid cell once
# (tpnet_verify --campaigns 138 --seed 1 --json), plain and with
# --recovery, each JSON file's SHA-256 against the value pinned in
# PINNED. With -DUPDATE=1 the script rewrites PINNED instead.
#   cmake -DTOOL=<tpnet_verify> -DDIR=<work dir> -DPINNED=<file>
#         [-DUPDATE=1] -P verify_grid_digest.cmake
set(actual "")
foreach(run plain recovery)
    set(flags --campaigns 138 --seed 1)
    if(run STREQUAL "recovery")
        list(APPEND flags --recovery)
    endif()
    set(json ${DIR}/verify_grid_${run}.json)
    execute_process(COMMAND ${TOOL} ${flags} --json ${json}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "tpnet_verify ${flags} exited ${rc}:\n${out}")
    endif()
    file(SHA256 ${json} sha)
    list(APPEND actual "${run} ${sha}")
endforeach()

if(UPDATE)
    list(JOIN actual "\n" body)
    file(WRITE ${PINNED}
         "# SHA-256 of tpnet_verify --campaigns 138 --seed 1 --json, plain\n"
         "# and with --recovery. Regenerate with scripts/update_goldens.sh.\n"
         "${body}\n")
    message(STATUS "rewrote ${PINNED}")
    return()
endif()

file(STRINGS ${PINNED} pinned REGEX "^[a-z]")
if(NOT actual STREQUAL pinned)
    message(FATAL_ERROR "verify grid JSON digests changed:\n"
            "  pinned: ${pinned}\n  actual: ${actual}")
endif()
