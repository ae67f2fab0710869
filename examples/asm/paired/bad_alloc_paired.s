; A deliberately BAD register allocation as a paired fixture for
; `npralc verify --paired`: the first half of the threads is the virtual
; input, the second half the physical threads of ../bad_alloc.s.
;
; Thread 'alpha' keeps p1 and p2 live across its two load CSBs, but
; thread 'beta' writes both. The translation validator clobbers p1 and p2
; at each CSB of alpha, so it rejects `add p1, p1, p3` with an operand
; mismatch; the safety verifier (`npralc lint --physical` on the physical
; half) rejects the same CSB-privacy violation.
;
; Paired fixtures live in this subdirectory rather than beside bad_swap.s,
; so the tests, CI steps and benchmark workloads that read every
; examples/asm/*.s file keep the set they were written for.
.thread alpha
.entrylive base
main:
    imm  x, 1
    imm  y, 2
    load u, [base+0]
    add  x1, x, u
    load v, [base+1]
    add  y1, y, v
    add  s, x1, y1
    store [base+0], s
    halt

.thread beta
.entrylive base
main:
    imm  a, 7
    imm  b, 9
    add  c, a, b
    store [base+0], c
    halt

.thread alpha.phys
.entrylive p0
main:
    imm  p1, 1
    imm  p2, 2
    load p3, [p0+0]        ; CSB: p1 and p2 are live across this switch
    add  p1, p1, p3
    load p4, [p0+1]        ; CSB: p1 and p2 are live across again
    add  p2, p2, p4
    add  p1, p1, p2
    store [p0+0], p1
    halt

.thread beta.phys
.entrylive p6
main:
    imm  p1, 7             ; clobbers alpha's private p1
    imm  p2, 9             ; clobbers alpha's private p2
    add  p5, p1, p2
    store [p6+0], p5
    halt
