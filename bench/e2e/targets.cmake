# The bench_e2e target and its smoke tests, included at the end of the root
# CMakeLists.txt by tree.cmake.

add_executable(bench_e2e
  "${XMLREVAL_E2E_DIR}/bench_e2e.cpp"
  "${XMLREVAL_E2E_DIR}/workloads.cpp")
target_link_libraries(bench_e2e PRIVATE xmlreval)
target_compile_definitions(bench_e2e PRIVATE
  XMLREVAL_E2E_BUILD_TYPE="${CMAKE_BUILD_TYPE}")

if(XMLREVAL_BUILD_TESTS)
  foreach(workload po_cast_dom corpus_recast stream_cast edit_stream
                   batch_mixed)
    add_test(NAME bench_e2e_smoke_${workload}
             COMMAND bench_e2e --workload ${workload} --smoke)
    set_tests_properties(bench_e2e_smoke_${workload} PROPERTIES LABELS bench)
  endforeach()
endif()
