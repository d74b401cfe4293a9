# Decoders of client, agent and on-disk input, and the kernel builder
# they hand decoded names to, must return errors, never end the
# process:
#   cmake -DSRC=<repo>/src -P check_decoders_no_fatal.cmake
# fails if any of these files calls fatal()/panic() (or the _if forms).

set(files
    triage/fields.hh
    triage/result_json.cc
    triage/repro.cc
    triage/program_json.cc
    serve/campaign_json.cc
    serve/proto.cc
    serve/agent.cc
    super/journal.cc
    super/cell.cc
    log/result_log.cc
    workloads/workloads.cc)
foreach(f IN LISTS files)
    file(STRINGS "${SRC}/${f}" hits REGEX "(fatal|panic)(_if)?\\(")
    if(hits)
        message(FATAL_ERROR "${f} calls fatal/panic:\n${hits}")
    endif()
endforeach()
