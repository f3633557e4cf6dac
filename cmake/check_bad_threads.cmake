# Check that programs which build the thread pool refuse a
# HIGHLIGHT_THREADS that is not an integer from 1 to 4096: each must
# exit with code 1 and name the bad value on stderr, not abort through
# std::terminate.
#
# Usage:
#   cmake "-DPROGRAMS=<exe>;<exe>..." -P check_bad_threads.cmake

if(NOT DEFINED PROGRAMS)
  message(FATAL_ERROR "check_bad_threads.cmake: -DPROGRAMS=... is required")
endif()

set(ENV{HIGHLIGHT_THREADS} 4x)
set(expected "HIGHLIGHT_THREADS=4x is not an integer from 1 to 4096")
foreach(program ${PROGRAMS})
  execute_process(COMMAND "${program}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "'${program}' exited with ${rc}, not 1:\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "'${program}' failed without saying '${expected}':\n${err}")
  endif()
endforeach()
