# The edgesim `--set` / `--config` contract, driven end to end:
#   cmake -DEDGESIM=<path to edgesim> -P check_cli_set.cmake
# A good override runs; an unknown key (the retired `engine` among
# them), an unknown mechanism and a count flag whose value is not a
# whole number in range are usage errors (exit 1) naming the flag.
# Overrides reach every cell of a chaos sweep.

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
    set(last_out "${out}" PARENT_SCOPE)
endfunction()

run_edgesim(0 "verified against the reference: PASS"
    --config dsre --set core.hop_latency=2 --set rng_seed=5)
run_edgesim(1 "unknown --set key 'bogus'" --config dsre --set bogus=1)
run_edgesim(1 "unknown config 'bogus'" --config bogus)
run_edgesim(1 "-j wants a count from 0 to 256, got 'abc'"
    --config dsre -j abc)

run_edgesim(1 "unknown --set key 'engine'" --config dsre --set engine=event)
run_edgesim(1 "--iterations wants a count from 0 to [0-9]+, got '12abc'"
    --config dsre --iterations 12abc)
run_edgesim(1 "--iterations wants a count from 0 to [0-9]+, got 'abc'"
    --config dsre --iterations abc)
run_edgesim(1 "--chaos-sweep wants a count from 0 to [0-9]+, got '-1'"
    --config dsre --chaos-sweep -1)

# A port past 65535 is refused before anything listens. Were it
# accepted, the coordinator would start serving: the timeout ends it.
execute_process(
    COMMAND ${EDGESIM} serve --listen 70000 --once
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    TIMEOUT 10)
if(NOT rc EQUAL 1 OR
   NOT out MATCHES "--listen wants a count from 0 to 65535, got '70000'")
    message(FATAL_ERROR "serve --listen 70000: exit ${rc}, want 1\n${out}")
endif()

# A chaos sweep runs every cell under the --set overrides too: a
# 16-frame window changes the sweep's totals.
run_edgesim(0 "2/2 runs converged" --config dsre --chaos-sweep 2)
string(REGEX MATCH "[0-9]+ injections, [0-9]+ checks" sweep8 "${last_out}")
run_edgesim(0 "2/2 runs converged"
    --config dsre --chaos-sweep 2 --set core.num_frames=16)
string(REGEX MATCH "[0-9]+ injections, [0-9]+ checks" sweep16 "${last_out}")
if(NOT sweep8 OR sweep8 STREQUAL sweep16)
    message(FATAL_ERROR
        "--set core.num_frames=16 did not reach the sweep: '${sweep16}'")
endif()
