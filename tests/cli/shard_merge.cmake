# Shard a short verify sweep and merge it back, all through the CLI:
#   cmake -DTOOL=<tpnet_verify> -DDIR=<work dir> -DCASE=<case>
#         -P shard_merge.cmake
# CASE=identity: --shard 0/2 and 1/2 merged with --merge-shards give a
#   document whose SHA-256 equals the monolithic --json run's.
# CASE=hostile_total: a real shard file whose "total" is edited to 10^15
#   (its result digest still verifies: it covers only the campaign lines)
#   is refused with exit 2 and a message naming that total.
set(work ${DIR}/shard_merge_${CASE})
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work}/shards)

function(run expect)
    execute_process(COMMAND ${TOOL} ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE out)
    if(NOT rc STREQUAL "${expect}")
        list(JOIN ARGN " " args)
        message(FATAL_ERROR "'${args}' exited ${rc}, expected ${expect}:\n"
                "${out}")
    endif()
    set(out "${out}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "identity")
    set(flags --campaigns 6 --seed 1 --max-cycles 2000)
    run(0 ${flags} --json ${work}/mono.json)
    foreach(i 0 1)
        run(0 ${flags} --shard ${i}/2 --json ${work}/shards/shard-${i}.json)
    endforeach()
    run(0 ${flags} --merge-shards ${work}/shards --json ${work}/merged.json)
    file(SHA256 ${work}/mono.json mono)
    file(SHA256 ${work}/merged.json merged)
    if(NOT merged STREQUAL mono)
        message(FATAL_ERROR "merged document differs from the monolithic "
                "run:\n  monolithic ${mono}\n  merged     ${merged}")
    endif()
elseif(CASE STREQUAL "hostile_total")
    set(flags --campaigns 2 --seed 1 --max-cycles 500)
    set(shard ${work}/shards/shard-0.json)
    run(0 ${flags} --shard 0/1 --json ${shard})
    file(READ ${shard} text)
    string(REGEX REPLACE "\"total\": [0-9]+" "\"total\": 1000000000000000"
           edited "${text}")
    if(edited STREQUAL text)
        message(FATAL_ERROR "no \"total\" field in ${shard}:\n${text}")
    endif()
    file(WRITE ${shard} "${edited}")
    run(2 ${flags} --merge-shards ${work}/shards --json ${work}/merged.json)
    if(NOT out MATCHES "1000000000000000")
        message(FATAL_ERROR "refusal does not name the total:\n${out}")
    endif()
else()
    message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
