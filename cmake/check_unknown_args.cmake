# Check that the figure drivers reject bad arguments: an argument no
# option consumes, and a missing, empty or repeated option value. Each
# run must exit with code 1 and give the reason on stderr, so a typo
# or a flag the driver no longer has cannot silently run another
# configuration.
#
# Usage:
#   cmake -DFIG13=<exe> -DFIG14=<exe> -DFIG15=<exe> -DFIG17=<exe>
#         -DOUTDIR=<dir> -P check_unknown_args.cmake

foreach(var FIG13 FIG14 FIG15 FIG17 OUTDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_unknown_args.cmake: -D${var}=... is required")
  endif()
endforeach()

# expect_fatal(<expected stderr text> <command...>)
function(expect_fatal expected)
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${OUTDIR}"
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "'${ARGN}' exited with ${rc}, not 1:\n${err}")
  endif()
  string(FIND "${err}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "'${ARGN}' failed without saying '${expected}':\n${err}")
  endif()
endfunction()

expect_fatal("unknown argument --shard" "${FIG15}" --serial --shard 0/2)
expect_fatal("unknown argument --cache-file" "${FIG14}" --serial --cache-file x)
expect_fatal("unknown argument --bogus-flag" "${FIG15}" --serial --bogus-flag)
expect_fatal("unknown argument --frontier-json" "${FIG15}" --frontier-json x)
expect_fatal("unknown argument --group-rows" "${FIG17}" --group-rows 4)

file(REMOVE "${OUTDIR}/a.json" "${OUTDIR}/b.json")
expect_fatal("--json requires a value" "${FIG13}" --json)
expect_fatal("--json requires a value" "${FIG13}" --json=)
expect_fatal("--json given twice" "${FIG13}" --json a.json --json b.json)
expect_fatal("--threads given twice" "${FIG13}" --threads 2 --threads 3)
expect_fatal("--threads 0: expected a positive integer" "${FIG13}" --threads 0)
expect_fatal("--serial contradicts --threads 2" "${FIG13}" --serial --threads 2)
foreach(f a.json b.json)
  if(EXISTS "${OUTDIR}/${f}")
    message(FATAL_ERROR "a rejected run wrote ${f}")
  endif()
endforeach()

expect_fatal("cannot write ${OUTDIR}/missing/f.json"
             "${FIG13}" --json "${OUTDIR}/missing/f.json")
