# The edgesim `--set` / `--config` contract, driven end to end:
#   cmake -DEDGESIM=<path to edgesim> -P check_cli_set.cmake
# A good override runs; an unknown key (the retired `engine` among
# them), an unknown mechanism and a count flag whose value is not a
# whole number in range are usage errors (exit 1) naming the flag.
# Overrides reach every cell of a chaos sweep. Every count row of
# both flag tables, read from `--help`, refuses junk, and the serve
# fraction row refuses whatever is not a number in [0, 1].

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

# Each case runs bare (`edgesim [serve] <flag> <value>`) under a
# timeout: a value the parser let through would start a run or a
# coordinator instead of exiting 1 at once.
function(expect_refused want_text)
    execute_process(
        COMMAND ${EDGESIM} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out
        TIMEOUT 10)
    if(NOT rc EQUAL 1 OR NOT out MATCHES "${want_text}")
        message(FATAL_ERROR "edgesim ${ARGN}: exit ${rc}, want 1 and "
            "'${want_text}'\n${out}")
    endif()
endfunction()

# The count rows: `--help` shows each as `  <spellings> N  <doc>`.
foreach(mode main serve)
    if(mode STREQUAL "serve")
        set(prefix serve)
    else()
        set(prefix "")
    endif()
    execute_process(
        COMMAND ${EDGESIM} ${prefix} --help
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE help
        TIMEOUT 10)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "edgesim ${prefix} --help: exit ${rc}")
    endif()
    string(REGEX MATCHALL "\n  -[-a-z, ]+ N( |\n)" rows "${help}")
    list(LENGTH rows nrows)
    if(nrows LESS 10)
        message(FATAL_ERROR
            "edgesim ${prefix} --help lists only ${nrows} count rows")
    endif()
    foreach(row IN LISTS rows)
        string(REGEX REPLACE "^\n  (.*) N.*$" "\\1" spellings "${row}")
        string(REPLACE ", " ";" spellings "${spellings}")
        foreach(flag IN LISTS spellings)
            foreach(junk abc 12abc -1)
                expect_refused("${flag} wants a count" ${prefix} ${flag} ${junk})
            endforeach()
        endforeach()
    endforeach()
endforeach()

foreach(junk abc 0.5x -0.1 1.5 nan)
    expect_refused("--audit-frac wants a fraction"
        serve --simulate --seeds 1 --audit-frac ${junk})
endforeach()
# An empty value, which a function's ARGN would drop.
execute_process(
    COMMAND ${EDGESIM} serve --simulate --seeds 1 --audit-frac ""
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    TIMEOUT 10)
if(NOT rc EQUAL 1 OR NOT out MATCHES "--audit-frac wants a fraction")
    message(FATAL_ERROR "serve --audit-frac '': exit ${rc}, want 1\n${out}")
endif()
