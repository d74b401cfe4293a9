# The bench_paper command line, driven end to end:
#   cmake -DBENCH_PAPER=<path to bench_paper> -P check_bench_paper.cmake
# `--figure all` at a small size prints every table and figure; an
# unknown figure, an unknown flag, a malformed count and a flag that
# does not apply to the selection are usage errors (exit 1).

function(run_bench want_rc want_text)
    execute_process(
        COMMAND ${BENCH_PAPER} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL want_rc)
        message(FATAL_ERROR
            "bench_paper ${ARGN}: exit ${rc}, want ${want_rc}\n${out}")
    endif()
    if(want_text AND NOT out MATCHES "${want_text}")
        message(FATAL_ERROR
            "bench_paper ${ARGN}: output lacks '${want_text}'\n${out}")
    endif()
    set(last_out "${out}" PARENT_SCOPE)
endfunction()

run_bench(0 "" --figure all 60 -j 2)
foreach(title
        "Table 1: simulated EDGE"
        "Table 2: workload characterisation \\(60 iterations"
        "Figure 5: speedup over the conservative baseline"
        "Figure 6: IPC vs window size"
        "Figure 7: violations / violation flushes"
        "Figure 8: DSRE re-execution overhead"
        "Figure 9: IPC vs memory latency"
        "Figure 10: DSRE design-choice ablations"
        "Figure 11: IPC vs operand-network hop latency"
        "Extension: miss value prediction")
    if(NOT last_out MATCHES "${title}")
        message(FATAL_ERROR
            "--figure all: no '${title}' line in:\n${last_out}")
    endif()
endforeach()

run_bench(1 "unknown figure 'bogus' \\(--figure takes one of: table1 table2 5 6 7 8 9 10 11 ext all\\)"
    --figure bogus)
run_bench(1 "unknown figure ''" 60)
run_bench(1 "unknown argument '--isolate'" --figure 5 --isolate)
run_bench(1 "--json writes one figure's cells" --figure all --json x.json)
run_bench(1 "'table2' runs no grid" --figure table2 --repro-dir repros)
run_bench(1 "-j wants a count from 0 to 256, got 'abc'" --figure 5 -j abc)
run_bench(1 "iteration count must be a positive number, got '12abc'"
    --figure 5 12abc)
