# Fails when library code reads the process environment. Sessions and tools
# take their behaviour from explicit config (vca::SessionConfig, vtp's
# flags); only the bench-harness knobs declared in core/knobs.h read VTP_*
# variables, through core/config.h and core/env.h.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/check_no_env.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT SRC_DIR)
  message(FATAL_ERROR "check_no_env: pass -DSRC_DIR=<path to src>")
endif()

set(allowed core/env.h core/config.h core/knobs.h)
file(GLOB_RECURSE sources RELATIVE ${SRC_DIR} ${SRC_DIR}/*.h ${SRC_DIR}/*.cc)
set(offenders "")
foreach(rel IN LISTS sources)
  if(rel IN_LIST allowed)
    continue()
  endif()
  file(STRINGS ${SRC_DIR}/${rel} hits REGEX "getenv|knobs::|core/knobs\\.h")
  foreach(line IN LISTS hits)
    string(STRIP "${line}" line)
    string(APPEND offenders "\n  ${rel}: ${line}")
  endforeach()
endforeach()

list(LENGTH sources count)
if(count EQUAL 0)
  message(FATAL_ERROR "check_no_env: no sources under ${SRC_DIR}")
endif()
if(offenders)
  message(FATAL_ERROR "check_no_env: library code reads the environment; "
                      "put the setting in its config instead:${offenders}")
endif()
message(STATUS "check_no_env: scanned ${count} files under src/, none reads the environment")
