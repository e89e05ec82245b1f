# Fails when a BENCH_*.json at the repository root is not a full run: every
# committed benchmark result must carry "quick": false. A --quick run's
# numbers come from shortened workloads and must not replace the committed
# figures.
#
# Usage: cmake -DREPO_ROOT=<repo> -P tests/check_bench_full.cmake
if(NOT REPO_ROOT)
  message(FATAL_ERROR "check_bench_full: pass -DREPO_ROOT=<repository root>")
endif()
file(GLOB bench_files LIST_DIRECTORIES false "${REPO_ROOT}/BENCH_*.json")
if(NOT bench_files)
  message(FATAL_ERROR "check_bench_full: no BENCH_*.json under ${REPO_ROOT}")
endif()
set(bad "")
foreach(f IN LISTS bench_files)
  get_filename_component(name "${f}" NAME)
  file(READ "${f}" json)
  string(JSON quick ERROR_VARIABLE err GET "${json}" quick)
  if(err)
    list(APPEND bad "${name} (no top-level \"quick\": ${err})")
  elseif(NOT quick STREQUAL "OFF")
    list(APPEND bad "${name} (\"quick\" is not false)")
  endif()
endforeach()
if(bad)
  list(JOIN bad "\n  " lines)
  message(FATAL_ERROR "check_bench_full: not full-run results:\n  ${lines}")
endif()
list(LENGTH bench_files n)
message(STATUS "check_bench_full: ${n} BENCH files, all full runs")
