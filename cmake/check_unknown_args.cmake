# Check that `paper` rejects bad input: a name or argument it does not
# know (a typo, or a flag it no longer has), a missing, empty or
# repeated --json value, --json unless exactly one artifact runs, an
# unwritable --json path, and a HIGHLIGHT_THREADS that is not an
# integer from 1 to 4096. Each run must exit with code 1 and give the
# reason on stderr, so a typo cannot silently run another
# configuration, and a run rejected before it starts writes no file.
#
# Usage:
#   cmake -DPAPER=<exe> -DOUTDIR=<dir> -P check_unknown_args.cmake

foreach(var PAPER OUTDIR)
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

expect_fatal("no artifact named fig99_bogus" "${PAPER}" fig99_bogus)
expect_fatal("no artifact named fig13" "${PAPER}" fig2_motivation fig13)
expect_fatal("unknown argument --serial" "${PAPER}" fig13_synthetic --serial)
expect_fatal("unknown argument --threads" "${PAPER}" fig13_synthetic --threads 2)
expect_fatal("unknown argument --threads=2" "${PAPER}" fig13_synthetic --threads=2)
expect_fatal("unknown argument --shard" "${PAPER}" fig15_pareto --shard 0/2)
expect_fatal("unknown argument --cache-file" "${PAPER}" fig14_geomean --cache-file x)
expect_fatal("unknown argument --bogus-flag" "${PAPER}" --bogus-flag)
expect_fatal("unknown argument --frontier-json" "${PAPER}" fig15_pareto --frontier-json x)
expect_fatal("unknown argument --group-rows" "${PAPER}" fig17_dsso --group-rows 4)

file(REMOVE "${OUTDIR}/a.json" "${OUTDIR}/b.json")
expect_fatal("--json requires a value" "${PAPER}" fig13_synthetic --json)
expect_fatal("--json requires a value" "${PAPER}" fig13_synthetic --json=)
expect_fatal("--json given twice"
             "${PAPER}" fig13_synthetic --json a.json --json b.json)
expect_fatal("--json needs exactly one artifact, got 14" "${PAPER}" --json a.json)
expect_fatal("--json needs exactly one artifact, got 2"
             "${PAPER}" fig13_synthetic table2_specs --json a.json)
expect_fatal("HIGHLIGHT_THREADS=4x is not an integer from 1 to 4096"
             "${CMAKE_COMMAND}" -E env HIGHLIGHT_THREADS=4x
             "${PAPER}" fig13_synthetic --json a.json)
foreach(f a.json b.json)
  if(EXISTS "${OUTDIR}/${f}")
    message(FATAL_ERROR "a rejected run wrote ${f}")
  endif()
endforeach()

expect_fatal("cannot write ${OUTDIR}/missing/f.json"
             "${PAPER}" fig13_synthetic --json "${OUTDIR}/missing/f.json")
