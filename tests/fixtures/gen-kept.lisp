; A generalization that the backtrack probe keeps: Goal' generalizes (len x)
; to v1, testing Goal'' finds no counterexample, so the step stands and
; Goal'' is pooled as a checkpoint.
(thm (implies (true-listp x) (equal (car (cons (len x) x)) (car (cons (len x) nil)))))
