; String literals whose characters the structured report escapes: a quote
; and a backslash, a raw tab, DEL, an accented letter, U+2028 and a character
; beyond the Basic Multilingual Plane, and a symbol with a non-ASCII letter.
(defun λ-id (x) x)

(test? (implies (equal s "say \"hi\" \\ back") (equal (λ-id s) "x")))

(test? (implies (equal s "tab	here del é   😀") (equal (λ-id s) s)))

(thm (implies (equal s "\\\"é 😀") (not (equal (λ-id s) s))))
