# Run BIN and require the SHA-256 of its stdout, with the `workers:`
# line taken out (the pool size is the host's), to equal SHA256.
#
# A binary that prints several figures is run once and checked per
# figure: with OUT, the stripped stdout is also written to that file
# and must hold SECTIONS sections; with IN, the text is read from
# that file instead of running BIN, and only section SECTION (from 0)
# is hashed. A section starts at each banner rule followed by
# `Figure` (banner() in common.hh).
# Usage: cmake -DBIN=<binary> -DSHA256=<hex> -P pin_stdout.cmake
#        cmake -DBIN=<binary> -DOUT=<file> -DSECTIONS=<n> -P pin_stdout.cmake
#        cmake -DIN=<file> -DSECTION=<i> -DSHA256=<hex> -P pin_stdout.cmake
if(DEFINED IN)
    if(NOT EXISTS "${IN}")
        message(FATAL_ERROR "${IN} is missing: run its setup test")
    endif()
    file(READ "${IN}" out)
    set(what "${IN} section ${SECTION}")
else()
    if(DEFINED OUT)
        file(REMOVE "${OUT}")
    endif()
    execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BIN} exited with ${rc}")
    endif()
    string(REGEX REPLACE "workers: [^\n]*\n" "" out "${out}")
    if(DEFINED OUT)
        file(WRITE "${OUT}" "${out}")
    endif()
    set(what "${BIN}")
endif()
if(DEFINED SECTIONS OR DEFINED SECTION)
    # Cut with FIND/SUBSTRING, not into a list: the text holds `;`.
    set(mark "==============================================\nFigure")
    set(rest "${out}")
    set(n 0)
    while(NOT rest STREQUAL "")
        string(SUBSTRING "${rest}" 1 -1 tail)
        string(FIND "${tail}" "${mark}" cut)
        if(cut EQUAL -1)
            string(LENGTH "${rest}" cut)
        else()
            math(EXPR cut "${cut} + 1")
        endif()
        if(DEFINED SECTION AND n EQUAL SECTION)
            string(SUBSTRING "${rest}" 0 ${cut} out)
        endif()
        string(SUBSTRING "${rest}" ${cut} -1 rest)
        math(EXPR n "${n} + 1")
    endwhile()
    if(DEFINED SECTIONS AND NOT n EQUAL SECTIONS)
        message(FATAL_ERROR
            "${what}: ${n} sections printed, ${SECTIONS} expected")
    endif()
endif()
if(DEFINED SHA256)
    string(SHA256 got "${out}")
    if(NOT got STREQUAL SHA256)
        message(FATAL_ERROR
            "${what}: stdout SHA-256 is ${got}, pinned ${SHA256}")
    endif()
endif()
