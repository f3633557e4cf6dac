# Smoke-compare a figure driver: run it at the default thread count,
# with --serial, and pinned to --threads 2, then byte-compare the three
# --json dumps and the three stdouts, and the default stdout against
# the committed golden copy. The dumps print doubles at max_digits10,
# so identical files <=> bit-identical results — this is the
# ctest-level thread-count determinism check for every driver. The
# golden stdout pins what the driver prints across commits.
#
# Usage:
#   cmake -DDRIVER=<exe> -DOUTDIR=<dir> -DNAME=<tag> -DGOLDEN=<txt>
#         -P compare_driver.cmake

foreach(var DRIVER OUTDIR NAME GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_driver.cmake: -D${var}=... is required")
  endif()
endforeach()

# run(<tag> <driver args...>): writes ${NAME}_<tag>.json and .txt.
function(run tag)
  set(json "${OUTDIR}/${NAME}_${tag}.json")
  set(txt "${OUTDIR}/${NAME}_${tag}.txt")
  file(REMOVE "${json}" "${txt}")
  execute_process(COMMAND "${DRIVER}" ${ARGN} --json "${json}"
                  RESULT_VARIABLE rc OUTPUT_FILE "${txt}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME}: '${ARGN}' run failed (rc=${rc})")
  endif()
  if(NOT EXISTS "${json}")
    message(FATAL_ERROR "${NAME}: missing JSON dump ${json}")
  endif()
endfunction()

# same(<expected> <actual> <what breaks if they differ>)
function(same expected actual why)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${expected}" "${actual}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${NAME}: ${actual} differs from ${expected} — ${why}")
  endif()
endfunction()

run(parallel)
run(serial --serial)
run(threads2 --threads 2)

foreach(variant serial threads2)
  foreach(ext json txt)
    same("${OUTDIR}/${NAME}_parallel.${ext}" "${OUTDIR}/${NAME}_${variant}.${ext}"
         "the bit-identical any-thread-count guarantee is broken")
  endforeach()
endforeach()

same("${GOLDEN}" "${OUTDIR}/${NAME}_parallel.txt"
     "the driver's stdout changed (regenerate the golden file only for a named cause)")
