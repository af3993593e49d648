; Hints that choose a goal's backtrack handler, its do-not set and its trial
; count. A goal's handler is the one its own hint names; otherwise it is the
; testing handler when backtracking is on, and else the one its parent had.
; An implication is clausified first, so its first goal is "Goal'".

; the user switches the testing handler off: the refuted generalization stays
(thm (<= 0 (+ (len x) (len x)))
     :hints (("Goal" :backtrack none)))

; the user switches the testing handler on; the child of destructor
; elimination inherits it, so its generalization is tested and discarded
(thm (implies (consp x) (<= 0 (+ (len (cdr x)) (len (cdr x)))))
     :hints (("Goal'" :backtrack test-gen-checkpoint)))

; a child's own hint wins over the handler it would inherit
(thm (implies (consp x) (<= 0 (+ (len (cdr x)) (len (cdr x)))))
     :hints (("Goal'" :backtrack test-gen-checkpoint)
             ("Goal''" :backtrack none)))

; the redone goal keeps the do-not set of its hint, and its probe and its
; checkpoint run twenty trials
(thm (<= 0 (+ (len x) (len x)))
     :hints (("Goal" :do-not (eliminate-destructors) :trials 20)))

; no simplification, and seven trials for the pooled goal
(thm (implies (natp n) (equal (+ n 0) n))
     :hints (("Goal'" :do-not (simplify) :trials 7)))

(thm (implies (natp n) (< n 3))
     :hints (("Goal'" :do-not (simplify) :trials 7)))

; an unknown handler is an error, and the session stops here
(thm (<= 0 (+ (len x) (len x)))
     :hints (("Goal" :backtrack nope)))
