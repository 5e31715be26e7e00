# Runs one program and fails unless it exits with the expected status — for
# ctest cases that pin a CLI's exit-code convention (e.g. usage errors = 2).
#
#   cmake -DEXPECT=2 -DPROGRAM=<exe> "-DARGS=<space-separated args>"
#         -P cmake/ExpectExitCode.cmake
if(NOT DEFINED EXPECT OR NOT DEFINED PROGRAM)
  message(FATAL_ERROR "usage: cmake -DEXPECT=<status> -DPROGRAM=<exe> "
                      "[-DARGS=<args>] -P ExpectExitCode.cmake")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} RESULT_VARIABLE status)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: expected exit status ${EXPECT}, "
                      "got ${status}")
endif()
