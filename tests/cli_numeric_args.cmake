# Drives xfc_cli with a malformed numeric argument: it must exit 1 with an
# "error:" line, never crash and never run on a misread number.
#
#   cmake -DXFC_CLI=<xfc_cli> -DWORK_DIR=<dir> -DCASE=<case> \
#         -P cli_numeric_args.cmake
#
# CASE bad_bound:     `archive region` with a non-numeric bound
# CASE negative_tile: `archive create --tile -1`

function(run_cli expect_exit)
  execute_process(COMMAND ${XFC_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(JOIN " " cmd xfc_cli ${ARGN})
  if(NOT rc STREQUAL expect_exit)
    message(FATAL_ERROR "${cmd}: exit status '${rc}', want ${expect_exit}\n"
                        "${out}${err}")
  endif()
  if(NOT expect_exit STREQUAL "0" AND NOT err MATCHES "(^|\n)error: ")
    message(FATAL_ERROR "${cmd}: no 'error:' line\n${err}")
  endif()
endfunction()

file(MAKE_DIRECTORY ${WORK_DIR})
# A 64x64 float32 field. Any 4 bytes are a float32; these repeat four finite
# values between 4e-8 and 3e23.
string(REPEAT "0123456789abcdef" 1024 values)
file(WRITE ${WORK_DIR}/t.f32 "${values}")

if(CASE STREQUAL "bad_bound")
  run_cli(0 archive create a.xfa 1 64 64 1e-3 t.f32 --tile 16)
  run_cli(1 archive region a.xfa t out.f32 abc 10 0 8)
elseif(CASE STREQUAL "negative_tile")
  run_cli(1 archive create b.xfa 1 64 64 1e-3 t.f32 --tile -1)
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
