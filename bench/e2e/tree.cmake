# Adds bench_e2e to the repository's own CMake tree when named as the root
# project's include hook:
#
#   cmake -S . -B build -DCMAKE_PROJECT_xmlreval_INCLUDE=$PWD/bench/e2e/tree.cmake
#   cmake --build build --target bench_e2e
#   ctest --test-dir build -L bench
#
# CMake includes this file right after project(xmlreval), before the root
# CMakeLists.txt sets its build type and compile options and defines the
# library. So targets.cmake is deferred to the end of the root file, and
# bench_e2e is built with the same settings and links the same xmlreval
# targets as the tests. bench/e2e/run.py configures such a tree.

if(CMAKE_VERSION VERSION_LESS 3.19)
  message(FATAL_ERROR "bench_e2e needs CMake 3.19 or newer")
endif()
set(XMLREVAL_E2E_DIR "${CMAKE_CURRENT_LIST_DIR}")
# Arguments of a deferred call are expanded when it runs.
cmake_language(DEFER CALL include "${XMLREVAL_E2E_DIR}/targets.cmake")
