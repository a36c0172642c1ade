# Runs the bench BENCH once per flag in FLAGS (comma-separated), each in a
# fresh directory under WORK, and fails unless every run exits non-zero
# and leaves no JSON file behind.
#   cmake -DBENCH=path -DFLAGS=--help,--repeats=x -DWORK=dir -P bench_flags_reject.cmake
string(REPLACE "," ";" flag_list "${FLAGS}")
set(index 0)
foreach(flag IN LISTS flag_list)
  set(dir "${WORK}/${index}")
  math(EXPR index "${index} + 1")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${BENCH}" "${flag}" WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE message)
  if(status EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${flag} exited 0")
  endif()
  file(GLOB written "${dir}/*.json")
  if(written)
    message(FATAL_ERROR "${BENCH} ${flag} wrote ${written}")
  endif()
  message(STATUS "${flag}: exit ${status}: ${message}")
endforeach()
