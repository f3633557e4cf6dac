# Check that the figure drivers reject arguments no option consumes:
# each run must exit nonzero and name the offending argument, so a
# typo or a flag the driver no longer has cannot silently run the
# default configuration.
#
# Usage:
#   cmake -DFIG14=<exe> -DFIG15=<exe> -DOUTDIR=<dir> -P check_unknown_args.cmake

foreach(var FIG14 FIG15 OUTDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_unknown_args.cmake: -D${var}=... is required")
  endif()
endforeach()

# expect_rejected(<expected argument in the message> <command...>)
function(expect_rejected arg)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${OUTDIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited 0; ${arg} must be rejected")
  endif()
  string(FIND "${err}" "unknown argument ${arg}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "'${ARGN}' failed (rc=${rc}) without naming ${arg}:\n${err}")
  endif()
endfunction()

expect_rejected(--shard "${FIG15}" --serial --shard 0/2)
expect_rejected(--cache-file "${FIG14}" --serial --cache-file x)
expect_rejected(--bogus-flag "${FIG15}" --serial --bogus-flag)
