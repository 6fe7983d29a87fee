# ISA audit of the blas archive, run as `cmake -DOBJDUMP=<objdump>
# -DARCHIVE=<libhplmxp_blas.a> -P blas_isa_audit.cmake`.
#
# The packed GEMM, the blocked TRSM and the FP16 narrowing are compiled once
# per x86 ISA level and picked at run time (blas/tune.h). Every ISA-tagged
# entry point is named <stage><Isa>, with the stage one of pack and compute
# (GEMM), solve (TRSM) or narrow (FP32 -> FP16 cast) and the ISA Avx2 or
# Avx512. Two things would silently break the dispatch:
#   * a contracted FMA (vfmadd and friends): it rounds once where the
#     kernels' contract rounds twice, so ISAs would stop producing
#     identical bits;
#   * a ymm/zmm register outside those entry points: a COMDAT or shared
#     helper compiled wide would fault with an illegal instruction on an
#     SSE2-only host.
# It also checks the tagged entry points really use the wide registers.
cmake_minimum_required(VERSION 3.20)

if(NOT OBJDUMP OR NOT ARCHIVE)
  message(FATAL_ERROR "usage: cmake -DOBJDUMP=... -DARCHIVE=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(
  COMMAND ${OBJDUMP} -d --no-show-raw-insn ${ARCHIVE}
  OUTPUT_VARIABLE dis
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${ARCHIVE} failed (${rc})")
endif()

set(failures "")

string(REGEX MATCHALL "[^\n]*[ \t]vfn?m(add|sub)[^\n]*" fma "${dis}")
list(LENGTH fma fmaCount)
if(fmaCount GREATER 0)
  list(GET fma 0 first)
  string(APPEND failures
    "${fmaCount} FMA instruction(s), first: ${first}\n")
endif()

# Keep only symbol headers and wide-register lines, then walk them.
set(stages pack compute solve narrow)
string(REGEX MATCHALL "[^\n]*(>:|%[yz]mm)[^\n]*" lines "${dis}")
set(symbol "")
set(wideTagged 0)
foreach(stage IN LISTS stages)
  set(wide_${stage} 0)
endforeach()
set(leaks "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-f]+ <([^>]+)>:$")
    set(symbol "${CMAKE_MATCH_1}")
  elseif(symbol MATCHES "(pack|compute|solve|narrow)Avx(2|512)")
    math(EXPR wideTagged "${wideTagged} + 1")
    math(EXPR wide_${CMAKE_MATCH_1} "${wide_${CMAKE_MATCH_1}} + 1")
  elseif(NOT symbol IN_LIST leaks)
    list(APPEND leaks "${symbol}")
  endif()
endforeach()
foreach(symbol IN LISTS leaks)
  string(APPEND failures "ymm/zmm register outside the ISA-tagged kernels: ${symbol}\n")
endforeach()
foreach(stage IN LISTS stages)
  if(wide_${stage} EQUAL 0)
    string(APPEND failures "no ymm/zmm register in the ISA-tagged ${stage}Avx* kernels: were they compiled wide?\n")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "blas ISA audit failed:\n${failures}")
endif()
message(STATUS "blas ISA audit: no FMA; ${wideTagged} wide-register instructions (pack ${wide_pack}, compute ${wide_compute}, solve ${wide_solve}, narrow ${wide_narrow}), all inside ISA-tagged kernels")
