# Smoke-compare `paper`'s stdout with the committed golden copies in
# tests/golden/, which pin every printed number across commits.
#
# With -DNAME=<artifact>: run `paper NAME --json` once. Its stdout must
# equal GOLDEN_DIR/NAME.txt, and it must write the dump (CI's native
# job byte-compares the dumps of two builds).
#
# With -DNAMES=<all artifacts in table order>: run the whole paper in
# one process twice, forward (no names) at HIGHLIGHT_THREADS=1 and
# with the names reversed at HIGHLIGHT_THREADS=4. Each stdout must be
# the goldens concatenated in the order run, so no artifact's output
# depends on the thread count or on what ran before it.
#
# Usage:
#   cmake -DPAPER=<exe> -DOUTDIR=<dir> -DGOLDEN_DIR=<dir>
#         (-DNAME=<artifact> | -DNAMES=<artifacts>) -P compare_paper.cmake

foreach(var PAPER OUTDIR GOLDEN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_paper.cmake: -D${var}=... is required")
  endif()
endforeach()

# check(<tag> <expected stdout file> <paper args...>): runs paper with
# the args, writes its stdout to OUTDIR/<tag>.txt and compares it.
function(check tag expected)
  set(txt "${OUTDIR}/${tag}.txt")
  string(JOIN " " command paper ${ARGN})
  file(REMOVE "${txt}")
  execute_process(COMMAND "${PAPER}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_FILE "${txt}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${command}' failed (rc=${rc})")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${expected}" "${txt}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "'${command}' printed ${txt}, which differs "
                        "from ${expected} (regenerate a golden file "
                        "only for a named cause)")
  endif()
endfunction()

if(DEFINED NAME)
  set(json "${OUTDIR}/${NAME}.json")
  file(REMOVE "${json}")
  check(${NAME} "${GOLDEN_DIR}/${NAME}.txt" ${NAME} --json "${json}")
  if(NOT EXISTS "${json}")
    message(FATAL_ERROR "'paper ${NAME} --json ${json}' wrote no dump")
  endif()
  return()
endif()

if(NOT DEFINED NAMES)
  message(FATAL_ERROR "compare_paper.cmake: -DNAME or -DNAMES is required")
endif()

# goldens(<out file> <names...>): the goldens concatenated in order.
function(goldens out)
  file(WRITE "${out}" "")
  foreach(name ${ARGN})
    file(READ "${GOLDEN_DIR}/${name}.txt" text)
    file(APPEND "${out}" "${text}")
  endforeach()
endfunction()

set(reversed ${NAMES})
list(REVERSE reversed)
goldens("${OUTDIR}/paper_forward_golden.txt" ${NAMES})
goldens("${OUTDIR}/paper_reversed_golden.txt" ${reversed})
set(ENV{HIGHLIGHT_THREADS} 1)
check(paper_forward "${OUTDIR}/paper_forward_golden.txt")
set(ENV{HIGHLIGHT_THREADS} 4)
check(paper_reversed "${OUTDIR}/paper_reversed_golden.txt" ${reversed})
