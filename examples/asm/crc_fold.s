; A xor-folding checksum next to a byte-swapper: the CRC thread folds the
; running value with shifted copies of each word (xor-heavy straight-line
; code), the swapper rotates halves with shifts and or. The validator
; matches each computed xor like any other instruction, operands in order,
; and reads only allocator-inserted swaps as copy code.
;
;   npralc alloc  examples/asm/crc_fold.s -nreg 10
;   npralc verify examples/asm/crc_fold.s -nreg 10
.thread crc_fold
.entrylive src, dst
main:
    imm  crc, 0
    imm  n, 8
word:
    load w, [src+0]
    xor  crc, crc, w
    shli hi, crc, 5
    xor  crc, crc, hi
    shri lo, crc, 3
    xor  crc, crc, lo
    addi src, src, 1
    subi n, n, 1
    bnz  n, word
    store [dst+0], crc
    loopend
    halt

.thread byteswap
.entrylive src, dst
main:
    imm  n, 8
swap:
    load w, [src+4]
    shli up, w, 16
    shri dn, w, 16
    or   w, up, dn
    store [dst+4], w
    addi src, src, 1
    addi dst, dst, 1
    subi n, n, 1
    bnz  n, swap
    loopend
    halt
