# Bad command-line input must be rejected as a usage error (exit 2,
# the option named on stderr), never run with a misparsed value.
#
# Invoked by ctest (see CMakeLists.txt) with:
#   PROGRAM   the tool binary
#   ARGS      the offending arguments, separated by spaces
#   MATCH     text stderr must contain

separate_arguments(argv UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND "${PROGRAM}" ${argv}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "${PROGRAM} ${ARGS} exited ${rc}, want 2:\n${out}\n${err}")
endif()
string(FIND "${err}" "${MATCH}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not mention '${MATCH}':\n${err}")
endif()
