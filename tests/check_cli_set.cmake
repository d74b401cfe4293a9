# The edgesim `--set` / `--config` contract, driven end to end:
#   cmake -DEDGESIM=<path to edgesim> -P check_cli_set.cmake
# A good override runs, an unknown key and an unknown mechanism are
# usage errors (exit 1) with a message.

function(run_edgesim want_rc want_text)
    execute_process(
        COMMAND ${EDGESIM} --kernel mcfish --iterations 10 ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL want_rc)
        message(FATAL_ERROR
            "edgesim ${ARGN}: exit ${rc}, want ${want_rc}\n${out}")
    endif()
    if(want_text AND NOT out MATCHES "${want_text}")
        message(FATAL_ERROR
            "edgesim ${ARGN}: output lacks '${want_text}'\n${out}")
    endif()
endfunction()

run_edgesim(0 "verified against the reference: PASS"
    --config dsre --set core.hop_latency=2 --set rng_seed=5)
run_edgesim(1 "unknown --set key 'bogus'" --config dsre --set bogus=1)
run_edgesim(1 "unknown config 'bogus'" --config bogus)
