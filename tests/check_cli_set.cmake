# The edgesim `--set` / `--config` contract, driven end to end:
#   cmake -DEDGESIM=<path to edgesim> -P check_cli_set.cmake
# A good override runs, an unknown key, an unknown mechanism and a
# thread count that is not a number are usage errors (exit 1) with a
# message. The cycle-loop engine is a config field like any other:
# `--set engine=tick` selects the reference loop and must report the
# same cycle count as the default event engine. Overrides reach every
# cell of a chaos sweep.

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

# The "<kernel> / <config>: N cycles, ..." line of the last run.
function(cycles_line var)
    string(REGEX MATCH "[^\n]*: [0-9]+ cycles[^\n]*" line "${last_out}")
    if(NOT line)
        message(FATAL_ERROR "no cycles line in:\n${last_out}")
    endif()
    set(${var} "${line}" PARENT_SCOPE)
endfunction()

run_edgesim(0 "verified against the reference: PASS"
    --config dsre --set core.hop_latency=2 --set rng_seed=5)
run_edgesim(1 "unknown --set key 'bogus'" --config dsre --set bogus=1)
run_edgesim(1 "unknown config 'bogus'" --config bogus)
run_edgesim(1 "-j wants a count from 0 to 256, got 'abc'"
    --config dsre -j abc)

run_edgesim(0 "verified against the reference: PASS" --config dsre)
cycles_line(event_line)
run_edgesim(0 "verified against the reference: PASS"
    --config dsre --set engine=tick)
cycles_line(tick_line)
if(NOT tick_line STREQUAL event_line)
    message(FATAL_ERROR
        "--set engine=tick: '${tick_line}' != default '${event_line}'")
endif()
run_edgesim(1 "unknown name 'bogus' \\(expected one of: tick event\\)"
    --config dsre --set engine=bogus)
run_edgesim(1 "unknown argument '--engine'" --config dsre --engine tick)

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
