# Golden gate for the paper's main figures. Runs fig4_latency,
# fig5_throughput and fig9_breakdown at --ops-scale=0.1 and compares
# their "=== " tables byte for byte with <bench>.txt here, and the
# SHA-256 of their PULSE_METRICS_OUT JSON with metrics.sha256. The
# runs are deterministic across thread counts, build types and the
# ASan/UBSan build, so one golden set serves every build.
#
#   cmake -DBENCH_DIR=build/bench -DGOLDEN_DIR=tests/goldens
#         -DWORK_DIR=build/golden [-DREGEN=ON]
#         -P tests/goldens/check_goldens.cmake
#
# REGEN=ON rewrites the goldens instead of comparing (regen.sh).
set(failures "")
set(digests "")
file(MAKE_DIRECTORY ${WORK_DIR})
foreach(bench fig4_latency fig5_throughput fig9_breakdown)
    set(json ${WORK_DIR}/${bench}.json)
    file(REMOVE ${json})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env PULSE_METRICS_OUT=${json}
                ${BENCH_DIR}/${bench} --ops-scale=0.1
        OUTPUT_VARIABLE stdout
        ERROR_VARIABLE stderr
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${bench} exited with ${status}:\n${stderr}")
    endif()
    # Everything from the first "=== " line on; the Google Benchmark
    # lines before it carry wall-clock times.
    string(FIND "${stdout}" "\n=== " start)
    if(start EQUAL -1)
        message(FATAL_ERROR "${bench} printed no === table")
    endif()
    math(EXPR start "${start} + 1")
    string(SUBSTRING "${stdout}" ${start} -1 tables)
    file(SHA256 ${json} digest)
    string(APPEND digests "${digest}  ${bench}.json\n")
    if(REGEN)
        file(WRITE ${GOLDEN_DIR}/${bench}.txt "${tables}")
        continue()
    endif()
    file(WRITE ${WORK_DIR}/${bench}.txt "${tables}")
    file(READ ${GOLDEN_DIR}/${bench}.txt golden)
    if(NOT tables STREQUAL golden)
        string(APPEND failures "  ${bench} tables differ: diff "
               "${GOLDEN_DIR}/${bench}.txt ${WORK_DIR}/${bench}.txt\n")
    endif()
endforeach()

if(REGEN)
    file(WRITE ${GOLDEN_DIR}/metrics.sha256 "${digests}")
    message(STATUS "goldens rewritten in ${GOLDEN_DIR}")
    return()
endif()
file(WRITE ${WORK_DIR}/metrics.sha256 "${digests}")
file(READ ${GOLDEN_DIR}/metrics.sha256 golden_digests)
if(NOT digests STREQUAL golden_digests)
    string(APPEND failures "  metrics JSON digests differ: diff "
           "${GOLDEN_DIR}/metrics.sha256 ${WORK_DIR}/metrics.sha256\n")
endif()
if(failures)
    message(FATAL_ERROR "figures moved from the goldens:\n${failures}"
            "If the model changed on purpose, run tests/goldens/regen.sh "
            "and name the change in CHANGES.md.")
endif()
