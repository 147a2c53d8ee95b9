# Run BIN and require the SHA-256 of its stdout, with the `workers:`
# line taken out (the pool size is the host's), to equal SHA256.
# Usage: cmake -DBIN=<binary> -DSHA256=<hex> -P pin_stdout.cmake
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
string(REGEX REPLACE "workers: [^\n]*\n" "" out "${out}")
string(SHA256 got "${out}")
if(NOT got STREQUAL SHA256)
    message(FATAL_ERROR
        "${BIN}: stdout SHA-256 is ${got}, pinned ${SHA256}")
endif()
