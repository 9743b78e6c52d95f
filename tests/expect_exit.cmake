# Runs EXE with ARGS (one space-separated string) and fails unless it exits
# with EXPECT. An expected exit of 2 must also come with a usage line on
# stderr.
#
#   cmake -DEXE=<program> "-DARGS=--load --shards 0" -DEXPECT=2 \
#         -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${EXE} ${ARGS}: exit '${rc}', want ${EXPECT}\n${err}")
endif()
if(EXPECT EQUAL 2 AND NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit 2 without a usage line\n${err}")
endif()
