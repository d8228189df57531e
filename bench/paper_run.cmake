# Run the paper executable PAPER once, keep its stdout in OUT, and fail
# unless it exits 0.  The view entries compare OUT with the ledger.
execute_process(COMMAND ${PAPER} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(SEND_ERROR "paper exited with ${rc}")
endif()
