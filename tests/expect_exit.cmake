# Runs `EXE FLAG VALUE` and fails unless it exits with status EXPECT
# without printing a bound port: a rejected flag must stop the daemon
# before any listener binds.
#   cmake -DEXE=<path> -DFLAG=<flag> -DVALUE=<value> -DEXPECT=<status>
#         -P expect_exit.cmake
execute_process(COMMAND "${EXE}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 10)
if(NOT status STREQUAL EXPECT)
  message(FATAL_ERROR
    "${FLAG} '${VALUE}': exit ${status}, want ${EXPECT}\n${out}${err}")
endif()
if(out MATCHES "port=")
  message(FATAL_ERROR "${FLAG} '${VALUE}': bound a listener\n${out}")
endif()
