# Run one command line and fail unless it exits with a given status.
#
#   cmake -DEXE=<program> "-DARGS=<arguments>" -DEXPECT=<status>
#         -P tests/cli/expect_exit.cmake
#
# ARGS is split like a Unix shell command line. The program's output is
# shown only when the status is wrong.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "'${EXE} ${ARGS}' exited ${status}, want ${EXPECT}\n"
                      "stdout:\n${out}\nstderr:\n${err}")
endif()
