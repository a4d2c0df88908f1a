# Symbol hygiene of the kernel objects built for more than the baseline
# ISA: src/tensor/gemm_avx2.cpp (-mavx2: the GEMM tile and the lane
# convolutions) and src/tensor/gemm_avx512.cpp (-mavx512f: the Conv2d lane
# convolution):
#
#   cmake -DNM=nm -DISA=avx2 -DOBJECT=<gemm_avx2.cpp.o> \
#         -P tools/check_tile_symbols.cmake
#   cmake -DNM=nm -DISA=avx512 -DOBJECT=<gemm_avx512.cpp.o> \
#         -P tools/check_tile_symbols.cmake
#
# The linker keeps one copy of every weak definition for the whole program,
# so a weak (W, w, V, v) or unique (u) symbol defined here could be the copy
# the baseline path runs, and a host without the ISA would die with SIGILL.
# Low optimization levels emit such copies for any inline or template
# function with external linkage the kernels call.  The check fails on
# those, on any global symbol other than the object's entry points, and on
# a missing entry point (so a wrong object path cannot pass vacuously).
# CTest runs it as `gemm_tile_symbols` (avx2) and `gemm_avx512_symbols`.
cmake_minimum_required(VERSION 3.16)

if(NOT NM OR NOT OBJECT OR NOT ISA)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DISA=avx2|avx512 "
                      "-DOBJECT=<gemm_<isa> object> "
                      "-P ${CMAKE_CURRENT_LIST_FILE}")
endif()

# The entry points, all in bprom::tensor::detail.
if(ISA STREQUAL "avx2")
  # gemm_tile_avx2, one overload per element type, and the lane
  # convolutions conv_lanes_avx2 and depthwise_lanes_avx2.
  set(entry_pattern
      "^_ZN5bprom6tensor6detail(14gemm_tile_avx2|15conv_lanes_avx2|20depthwise_lanes_avx2)E")
  set(entry_count 4)
elseif(ISA STREQUAL "avx512")
  # conv_lanes_avx512.
  set(entry_pattern "^_ZN5bprom6tensor6detail17conv_lanes_avx512E")
  set(entry_count 1)
else()
  message(FATAL_ERROR "ISA must be avx2 or avx512, not '${ISA}'")
endif()

execute_process(COMMAND ${NM} --defined-only ${OBJECT}
                OUTPUT_VARIABLE listing
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} --defined-only ${OBJECT} failed: ${errors}")
endif()

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
    "${OBJECT} defines symbols the ${ISA} kernels must not:\n  ${report}")
endif()
if(NOT entries EQUAL entry_count)
  message(FATAL_ERROR "${OBJECT}: expected ${entry_count} ${ISA} kernel "
                      "entry points, found ${entries}")
endif()
message(STATUS
  "${OBJECT}: ${entries} entry points, no weak or stray global symbols")
