# Runs a command and passes only if it exits with status 2 and its stderr
# contains EXPECT (a literal string):
#
#   cmake -DEXPECT=<text> -P expect_exit_2.cmake <program> [args...]
set(command "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 4 ${last})
    list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "exit status ${status}, expected 2; stderr:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr does not name '${EXPECT}':\n${err}")
endif()
