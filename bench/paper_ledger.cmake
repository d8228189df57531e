# Compare the section of the paper output OUT that belongs to VIEW with
# the same section of the ledger LEDGER, byte for byte.  A section runs
# from the banner titled FROM (the start of the file when FROM is
# empty) to the banner titled TO (the end of the file when TO is
# empty), so the views together cover every byte.
# After an intended change of numbers, re-pin with
#   build/bench/paper > bench/paper.txt
string(REPEAT "=" 70 bar)
function(section file var)
    file(READ ${file} text)
    set(begin 0)
    if(FROM)
        string(FIND "${text}" "\n${bar}\n${FROM}" begin)
    endif()
    string(LENGTH "${text}" end)
    if(TO)
        string(FIND "${text}" "\n${bar}\n${TO}" end)
    endif()
    if(begin LESS 0 OR end LESS begin)
        message(FATAL_ERROR
            "${file} has no ${VIEW} section (banners '${FROM}' to '${TO}')")
    endif()
    math(EXPR len "${end} - ${begin}")
    string(SUBSTRING "${text}" ${begin} ${len} text)
    set(${var} "${text}" PARENT_SCOPE)
endfunction()

section(${LEDGER} expected)
section(${OUT} actual)
if(NOT expected STREQUAL actual)
    file(WRITE ${OUT}.${VIEW}.ledger "${expected}")
    file(WRITE ${OUT}.${VIEW} "${actual}")
    execute_process(COMMAND diff -u ${OUT}.${VIEW}.ledger ${OUT}.${VIEW})
    message(SEND_ERROR "the ${VIEW} section of ${OUT} differs from ${LEDGER}")
endif()
