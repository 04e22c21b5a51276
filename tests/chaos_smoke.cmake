# End-to-end chaos smoke: the same vca-sim sweep, run clean and run
# under heavy deterministic fault injection (half of first worker
# attempts crash, every cache read corrupts, half of cache writes
# fail), must print byte-identical results. A second chaos pass over
# the now-populated (and constantly corrupted) cache must too. Only
# the "host: ..." line — wall-clock, by construction different every
# run — is stripped before comparison.
#
# Then the resume phase: a sweep whose every point exhausts its
# attempts exits 3 and records each failure as the point's cache
# entry; --resume replays them (same n/a table, nothing simulated,
# exit 3); a plain rerun heals to the clean output (exit 0); and the
# cache dir holds nothing but entries and at most quarantine/.
#
# Invoked by ctest (see CMakeLists.txt) with:
#   VCA_SIM   path to the vca-sim binary
#   WORK      scratch directory for the two sweep sides

set(sweep_args
    --bench=crafty --arch=vca --sweep-regs=64,96,128,160,192,256
    --warmup=2000 --insts=20000)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/clean" "${WORK}/chaos" "${WORK}/resume")

# Runs one sweep side (extra vca-sim flags in sweep_extra), requires
# exit code want_rc, and returns its host-line-stripped stdout (stderr
# in sweep_err).
function(run_sweep side want_rc out_var)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
            VCA_CACHE_DIR=cache VCA_SWEEP_STATS= ${ARGN}
            "${VCA_SIM}" ${sweep_args} ${sweep_extra}
        WORKING_DIRECTORY "${WORK}/${side}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL want_rc)
        message(FATAL_ERROR "${side} sweep exited ${rc}, want "
                "${want_rc}:\n${out}\n${err}")
    endif()
    string(REGEX REPLACE "host: [^\n]*\n" "" out "${out}")
    set(${out_var} "${out}" PARENT_SCOPE)
    set(sweep_err "${err}" PARENT_SCOPE)
endfunction()

run_sweep(clean 0 clean_out
    VCA_FAULT_INJECT= VCA_ISOLATE=0)

set(chaos_env
    "VCA_FAULT_INJECT=seed=101,crash=0.5,corrupt=1,writefail=0.5,attempts=1"
    VCA_ISOLATE=1 VCA_RETRIES=3 VCA_RETRY_BACKOFF_MS=1
    VCA_POINT_TIMEOUT=120)

run_sweep(chaos 0 chaos_cold_out ${chaos_env})
if(NOT chaos_cold_out STREQUAL clean_out)
    message(FATAL_ERROR "chaos sweep diverged from the clean sweep:\n"
            "--- clean ---\n${clean_out}\n"
            "--- chaos ---\n${chaos_cold_out}")
endif()

# Warm pass: every read of the now-populated cache is corrupted, so
# every point quarantines and re-simulates — still byte-identical
# (including the hit/miss line: corrupted entries count as misses).
run_sweep(chaos 0 chaos_warm_out ${chaos_env})
if(NOT chaos_warm_out STREQUAL clean_out)
    message(FATAL_ERROR
            "warm chaos sweep diverged from the clean sweep:\n"
            "--- clean ---\n${clean_out}\n"
            "--- chaos ---\n${chaos_warm_out}")
endif()

# Resume phase. Every attempt of every point crashes (attempts=10 is
# beyond the one retry), so each point ends as a failure entry.
run_sweep(resume 3 failed_out
    "VCA_FAULT_INJECT=seed=101,crash=1,attempts=10"
    VCA_ISOLATE=1 VCA_RETRIES=1 VCA_RETRY_BACKOFF_MS=1)
# The IPC table, without the cache hit/miss line.
string(REGEX REPLACE "cache: [^\n]*\n" "" failed_table "${failed_out}")
if(NOT failed_table MATCHES "n/a")
    message(FATAL_ERROR "failed sweep shows no n/a cells:\n${failed_out}")
endif()

# --resume with faults off replays the recorded failures: the same
# n/a table, nothing simulated, still exit 3.
set(sweep_extra --resume=true)
run_sweep(resume 3 resumed_out
    VCA_FAULT_INJECT= VCA_ISOLATE=1 VCA_SWEEP_STATS=1)
unset(sweep_extra)
string(REGEX REPLACE "cache: [^\n]*\n" "" resumed_table "${resumed_out}")
if(NOT resumed_table STREQUAL failed_table)
    message(FATAL_ERROR "resumed sweep table differs:\n"
            "--- failed ---\n${failed_out}\n"
            "--- resumed ---\n${resumed_out}")
endif()
if(NOT sweep_err MATCHES "0 cache hits, 0 simulated")
    message(FATAL_ERROR "resumed sweep simulated points:\n${sweep_err}")
endif()

# A plain rerun retries the failures and heals to the clean output.
run_sweep(resume 0 healed_out VCA_FAULT_INJECT= VCA_ISOLATE=0)
if(NOT healed_out STREQUAL clean_out)
    message(FATAL_ERROR "healed sweep diverged from the clean sweep:\n"
            "--- clean ---\n${clean_out}\n"
            "--- healed ---\n${healed_out}")
endif()

# Every outcome lives in a "<16 hex>.json" entry: no other files (no
# journals, manifests or leftover temp files) under the cache dir.
string(REPEAT "[0-9a-f]" 16 hex16)
file(GLOB cache_items RELATIVE "${WORK}/resume/cache"
     LIST_DIRECTORIES true "${WORK}/resume/cache/*")
foreach(item IN LISTS cache_items)
    if(NOT item MATCHES "^${hex16}\\.json$" AND
       NOT item STREQUAL "quarantine")
        message(FATAL_ERROR "unexpected cache dir item: ${item}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
