; A CSB-privacy violation only the safety verifier sees, as a paired
; fixture for `npralc verify --paired`. Thread 'alpha' keeps x in the
; shared register p1 across its load CSB, and thread 'beta' writes p1.
; The only later use of x is a copy whose result is never read, so the
; clobbered value reaches no operand: the translation validator proves
; this pair, while the safety verifier (`npralc lint --physical` on the
; physical half) rejects p1 as live across a CSB and referenced by beta.
.thread alpha
.entrylive base
main:
    imm  x, 5
    load u, [base+0]
    mov  y, x              ; dead copy: y is never read
    store [base+0], u
    halt

.thread beta
.entrylive base
main:
    imm  z, 7
    store [base+1], z
    halt

.thread alpha.phys
.entrylive p0
main:
    imm  p1, 5
    load p2, [p0+0]        ; CSB: p1 is live across this switch
    mov  p3, p1            ; the dead copy reads the clobbered p1
    store [p0+0], p2
    halt

.thread beta.phys
.entrylive p4
main:
    imm  p1, 7             ; clobbers alpha's p1
    store [p4+1], p1
    halt
