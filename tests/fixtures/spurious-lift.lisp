; An unsound rule: it says no value is a cons. Simplify uses it to drop the
; (consp x) literal, so every checkpoint counterexample has x bound to an
; atom. Lifted to the top goal, x is a don't-care, and one of the lift's
; wildcard probes binds it to a cons, which satisfies the conjecture: each
; lifted counterexample is reported as spurious, and none as a counterexample.
(defrule no-conses (equal (consp x) nil))

(thm (or (consp x) (natp y)))
