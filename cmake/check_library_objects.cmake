# Fail when the library carries code that no paper artifact reaches.
# `paper` links all 14 artifact functions, so its link map names every
# archive member an artifact pulls in. Each member of the library
# archive must appear in that map as `<archive>(<member>)` or be on the
# allowlist below; an allowlisted member that the map does name, or
# that the archive no longer holds, fails too, so the list cannot go
# stale.
#
# Usage:
#   cmake -DAR=<ar> -DARCHIVE=<libhighlight.a> -DMAP=<paper link map>
#         -P check_library_objects.cmake

foreach(var AR ARCHIVE MAP)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
            "check_library_objects.cmake: -D${var}=... is required")
  endif()
endforeach()

# Object stems (the source file's name without .cc) that paper does
# not link, each with the reason it stays in the library:
#   bench_io        bench_kernels' ledger writer (bench/bench_kernels.cc)
#   bitmask         DSTC's bitmask metadata, an oracle candidate (ROADMAP F)
#   conformance     HSS conformance checks, an oracle candidate (ROADMAP F)
#   energy_adapter  prices microsim counters, an oracle candidate (ROADMAP F)
set(allowlist bench_io bitmask conformance energy_adapter)

execute_process(COMMAND "${AR}" t "${ARCHIVE}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE listing)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'${AR} t ${ARCHIVE}' failed (rc=${rc})")
endif()
string(REGEX MATCHALL "[^\n]+" members "${listing}")
file(READ "${MAP}" map)
get_filename_component(archive_name "${ARCHIVE}" NAME)

set(failures "")
set(stems "")
foreach(member ${members})
  string(REGEX REPLACE "\\..*$" "" stem "${member}")
  list(APPEND stems ${stem})
  string(FIND "${map}" "${archive_name}(${member})" pos)
  list(FIND allowlist ${stem} allowed)
  if(pos EQUAL -1 AND allowed EQUAL -1)
    string(APPEND failures
           "\n  ${member}: paper does not link it; delete it or allowlist "
           "it with a reason")
  elseif(NOT pos EQUAL -1 AND NOT allowed EQUAL -1)
    string(APPEND failures
           "\n  ${member}: paper links it; drop '${stem}' from the "
           "allowlist")
  endif()
endforeach()
foreach(stem ${allowlist})
  list(FIND stems ${stem} present)
  if(present EQUAL -1)
    string(APPEND failures
           "\n  ${stem}: allowlisted but not in ${archive_name}")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "${archive_name} vs ${MAP}:${failures}")
endif()
list(LENGTH members count)
message(STATUS "${archive_name}: ${count} members, each linked by "
               "paper or allowlisted")
