# Runs the CLI-default Table I campaign (3 models x HCPA/MCPA, exp seed 42)
# and compares its CSV byte for byte with the committed golden file. The
# CSV holds round-trip makespans, so any change to either replay shows.
# EXTRA_ARGS (optional, space-separated) adds campaign options, such as
# "--platform hier4x8".
#
#   cmake -DCLI=<mtsched_cli> -DGOLDEN=<csv> -DOUT=<csv>
#         [-DEXTRA_ARGS=<options>] -P golden_campaign.cmake
separate_arguments(extra UNIX_COMMAND "${EXTRA_ARGS}")
execute_process(COMMAND "${CLI}" campaign --threads 2 --quiet ${extra}
                        --csv "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "campaign failed: ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
