# Runs pufferfish_cli with ARGS (a space-separated string) and passes only
# when it exits with status 1 and prints EXPECT on stderr -- a rejected
# flag must fail loudly, not crash and not train with a default.
#
#   cmake -DCLI=<pufferfish_cli> "-DARGS=train --epochs abc"
#         "-DEXPECT=--epochs='abc'" -P expect_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${rc}'\n${out}${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
