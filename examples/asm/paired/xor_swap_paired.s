; A register swap in front of a xor of the two swapped values, as a paired
; fixture for `npralc verify --paired`. The physical half exchanges p0 and
; p1 with ParallelCopy's three-xor swap, then computes a ^ b from the
; swapped registers. The validator reads the swap as an exchange before it
; matches any xor: its first xor, `xor p0, p0, p1`, also has the operand
; values of the virtual `xor c, a, b`, but the next two do not match what
; follows. The pair proves with 6 instructions matched and the swap's 3
; xors interpreted as copies.
.thread fold
.entrylive a, b, out
main:
    xor  c, a, b
    sub  d, c, a
    store [out+0], d
    store [out+1], b
    loopend
    halt

.thread fold.phys
.entrylive p0, p1, p2
main:
    xor  p0, p0, p1        ; swap p0 and p1: a is now in p1, b in p0
    xor  p1, p0, p1
    xor  p0, p0, p1
    xor  p3, p1, p0        ; c = a ^ b, read from the swapped registers
    sub  p3, p3, p1
    store [p2+0], p3
    store [p2+1], p0
    loopend
    halt
