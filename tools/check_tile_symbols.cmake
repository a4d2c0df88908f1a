# Symbol hygiene of the AVX2 kernel object (src/tensor/gemm_avx2.cpp, the
# only translation unit compiled with -mavx2: the GEMM tile and the lane
# convolutions):
#
#   cmake -DNM=nm -DOBJECT=<gemm_avx2.cpp.o> -P tools/check_tile_symbols.cmake
#
# The linker keeps one copy of every weak definition for the whole program,
# so a weak (W, w, V, v) or unique (u) symbol defined here could be the copy
# the baseline path runs, and a host without AVX2 would die with SIGILL.
# Low optimization levels emit such copies for any inline or template
# function with external linkage the kernels call.  The check fails on
# those, on any global symbol other than the entry points, and on a missing
# entry point (so a wrong object path cannot pass vacuously).  CTest runs it
# as `gemm_tile_symbols`.
cmake_minimum_required(VERSION 3.16)

if(NOT NM OR NOT OBJECT)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DOBJECT=<gemm_avx2 object> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(COMMAND ${NM} --defined-only ${OBJECT}
                OUTPUT_VARIABLE listing
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} --defined-only ${OBJECT} failed: ${errors}")
endif()

# In bprom::tensor::detail: gemm_tile_avx2, one overload per element type,
# and the lane convolutions conv_lanes_avx2 and depthwise_lanes_avx2.
set(entry_pattern
    "^_ZN5bprom6tensor6detail(14gemm_tile_avx2|15conv_lanes_avx2|20depthwise_lanes_avx2)E")
set(entry_count 4)
# ISA-neutral data the compiler may emit weak: the exception-handling
# personality pointer.
set(allowed DW.ref.__gxx_personality_v0)

string(REPLACE "\n" ";" lines "${listing}")
set(entries 0)
set(violations "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^[0-9a-fA-F]+ ([A-Za-z]) (.+)$")
    continue()
  endif()
  set(type "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}")
  if(name IN_LIST allowed)
    continue()
  endif()
  if(type MATCHES "^[WwVvu]$")
    list(APPEND violations "${type} ${name} (weak or unique)")
  elseif(type MATCHES "^[A-Z]$")
    if(name MATCHES "${entry_pattern}")
      math(EXPR entries "${entries} + 1")
    else()
      list(APPEND violations "${type} ${name} (global, not an entry point)")
    endif()
  endif()
endforeach()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR
    "${OBJECT} defines symbols the AVX2 tile must not:\n  ${report}")
endif()
if(NOT entries EQUAL entry_count)
  message(FATAL_ERROR "${OBJECT}: expected ${entry_count} AVX2 kernel entry "
                      "points, found ${entries}")
endif()
message(STATUS
  "${OBJECT}: ${entries} entry points, no weak or stray global symbols")
