# Raw file-syscall gate, run as a ctest in script mode:
#
#   cmake -DSRC_DIR=<repo>/src -P cmake/SyscallSites.cmake
#
# Raw open/read/write/ftruncate/flock/fsync/fdatasync calls live in exactly
# three files: the atomic write in util/binary_io.cpp, the record log in
# util/framed_log.cpp and the lease files in service/lease_lock.cpp.  Every
# other durable artifact goes through one of those, so a syscall
# fault-injection seam has three sites to cover.  The gate fails when a
# fourth appears.  Line comments are ignored.
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<src dir> -P SyscallSites.cmake")
endif()

set(_allowed util/binary_io.cpp util/framed_log.cpp service/lease_lock.cpp)
set(_pattern
    "::open\\(|::read\\(|::write\\(|::ftruncate|::flock|fdatasync|::fsync\\(")

file(GLOB_RECURSE _files RELATIVE ${SRC_DIR} ${SRC_DIR}/*.cpp ${SRC_DIR}/*.hpp)
list(SORT _files)
set(_offenders)
foreach(_file IN LISTS _files)
  if(_file IN_LIST _allowed)
    continue()
  endif()
  file(READ ${SRC_DIR}/${_file} _text)
  string(REGEX REPLACE "//[^\n]*" "" _code "${_text}")
  string(REGEX MATCHALL "${_pattern}" _hits "${_code}")
  if(_hits)
    list(REMOVE_DUPLICATES _hits)
    string(REPLACE ";" " " _hits "${_hits}")
    list(APPEND _offenders "src/${_file}: ${_hits}")
  endif()
endforeach()

if(_offenders)
  string(REPLACE ";" "\n  " _report "${_offenders}")
  string(REPLACE ";" ", " _allowed "${_allowed}")
  message(FATAL_ERROR
    "raw file syscalls outside ${_allowed}:\n  ${_report}\n"
    "Route the I/O through FramedLog or the binary_io helpers.")
endif()
list(LENGTH _files _count)
message(STATUS "syscall sites: ${_count} files checked, none outside the "
               "allowed three")
