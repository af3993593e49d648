import pytest

from sedan import cli, simplify
from sedan.session import process_source
from sedan.simplify import QNIL, Budget, fold_ground, match, simplify_clause
from sedan.terms import Quote, Var
from sedan.waterfall import PROOF_STEPS
from sedan.world import RewriteRule

from conftest import make_world, term, with_settings

RULES = '(include "base-rules.lisp")\n(include "cancel-rules.lisp")\n'


def clause(*srcs):
    return [term(s) for s in srcs]


def test_complementary_literals_prove_the_clause(world):
    out = simplify_clause(clause("(natp x)", "(not (natp x))"), world, Budget(PROOF_STEPS))
    assert out.status == "proved"


def test_constant_true_literal_proves(world):
    out = simplify_clause(clause("(not (natp x))", "t"), world, Budget(PROOF_STEPS))
    assert out.status == "proved"


def test_constant_false_literal_drops(world):
    out = simplify_clause(clause("nil", "(natp x)"), world, Budget(PROOF_STEPS))
    assert out.status == "children"
    assert out.children == [clause("(natp x)")]


def test_ground_subterms_evaluate(world):
    out = simplify_clause(clause("(natp (+ 2 3))"), world, Budget(PROOF_STEPS))
    assert out.status == "proved"
    out = simplify_clause(clause("(equal (len '(1 2)) 3)"), world, Budget(PROOF_STEPS))
    assert out.status == "children"
    assert out.children == [[QNIL]]  # the whole clause is false


def test_equality_substitution_then_ground_evaluation(world):
    # (implies (equal x 42) (natp x)) -> substitute, then 'natp 42' computes
    out = simplify_clause(clause("(not (equal x 42))", "(natp x)"), world, Budget(PROOF_STEPS))
    assert out.status == "proved"
    assert out.substitutions == {"x": Quote(42)}


def test_substitution_records_elision(world):
    # no rules loaded: the substitution fires and the residue stays put
    out = simplify_clause(clause("(not (equal x (cons a b)))", "(consp x)"), world, Budget(PROOF_STEPS))
    assert out.status == "children"
    assert out.children == [clause("(consp (cons a b))")]
    assert out.substitutions == {"x": term("(cons a b)")}


def test_reflexive_equality_hypothesis_drops_and_var_vanishes(world):
    out = simplify_clause(clause("(not (equal x x))", "(< (+ y 1) y)"), world, Budget(PROOF_STEPS))
    assert out.status == "children"
    assert out.children == [clause("(< (+ y 1) y)")]


def test_rewrite_with_relieved_hypothesis():
    w = make_world(RULES)
    out = simplify_clause(clause("(not (posp n))", "(natp n)"), w, Budget(PROOF_STEPS))
    assert out.status == "proved"


def test_rewrite_chain_through_recognizer_rules():
    w = make_world(RULES)
    # rationalp via posp -> natp -> integerp -> rationalp backchaining
    out = simplify_clause(clause("(not (posp n))", "(rationalp n)"), w, Budget(PROOF_STEPS))
    assert out.status == "proved"


def test_cancel_rule_microcase():
    w = make_world(RULES)
    # under (posp a), (equal a (* b a)) rewrites to (equal b 1); the equality
    # then substitutes and the conclusion computes to t
    out = simplify_clause(
        clause("(not (posp a))", "(not (equal a (* b a)))", "(equal (+ b b) 2)"),
        w,
        Budget(PROOF_STEPS),
    )
    assert out.status == "proved"
    assert out.substitutions.get("b") == Quote(1)


def test_selector_rules_reduce_explicit_conses():
    w = make_world(RULES)
    out = simplify_clause(clause("(equal (car (cons a b)) a)"), w, Budget(PROOF_STEPS))
    assert out.status == "proved"
    out = simplify_clause(clause("(not (posp (car (cons a b))))", "(posp a)"), w, Budget(PROOF_STEPS))
    assert out.status == "proved"


def test_unchanged_when_nothing_applies():
    w = make_world(RULES + "(defun opaque (x) x)")
    out = simplify_clause(clause("(not (true-listp x))", "(equal (opaque x) x)"), w, Budget(PROOF_STEPS))
    assert out.status == "unchanged"


def test_rewrite_budget_exhaustion_downgrades_with_diagnostic():
    w = make_world("(defun f (x) x)\n(defun g (x) x)")
    # a deliberately looping rule: (f x) -> (f (g x))
    w.add_rule(RewriteRule("loop", (), term("(f x)"), term("(f (g x))")))
    out = simplify_clause(clause("(not (natp (f y)))", "(natp y)"), w, Budget(50))
    assert any("budget" in d for d in out.diagnostics)


def test_a_clause_stays_unsplit_when_the_budget_has_fewer_steps_than_its_clauses():
    w = make_world("(defun f (x) x)\n(defun p (x) x)\n(defun q (x) x)")
    w.add_rule(RewriteRule("split", (), term("(f x)"), term("(and (p x) (q x))")))
    out = simplify_clause(clause("(f y)"), w, Budget(PROOF_STEPS))
    assert out.children == [clause("(p y)"), clause("(q y)")]
    # a pass and the rule application leave one step, too few for two clauses
    out = simplify_clause(clause("(f y)"), w, Budget(3))
    assert (out.status, out.children, out.rule_applications) == ("children", [clause("(and (p y) (q y))")], 1)


def test_match_is_nonlinear():
    sigma = match(term("(equal x (* y x))"), term("(equal a (* b a))"))
    assert sigma == {"x": Var("a"), "y": Var("b")}
    assert match(term("(equal x (* y x))"), term("(equal a (* b c))")) is None
    assert match(term("(equal x 0)"), term("(equal a 0)")) == {"x": Var("a")}
    assert match(term("(equal x 0)"), term("(equal a 1)")) is None


def test_fold_ground_leaves_erroring_subterms(world):
    w = make_world("(set-testing :depth-cap 20)\n(defun spin (x) (spin x))")
    t = term("(equal (spin 1) (+ 1 2))")
    folded = fold_ground(t, w)
    assert folded == term("(equal (spin 1) 3)")


def test_reclausification_of_introduced_ifs():
    w = make_world("(defun pick (p) p)")
    w.add_rule(RewriteRule("open-pick", (), term("(pick p)"), term("(if p (natp p) (negp p))")))
    out = simplify_clause(clause("(pick q)"), w, Budget(PROOF_STEPS))
    # the literal-level if splits into two clauses
    assert out.status == "children"
    assert len(out.children) == 2
    assert out.children[0] == clause("(not q)", "(natp q)")
    assert out.children[1] == clause("q", "(negp q)")


def test_rules_are_tried_only_on_their_own_head_first_admitted_first(monkeypatch):
    w = make_world("(defun f (x) x)\n(defun g (x) x)\n(defun h (x) x)")
    # two rules on f that both match (f y), with rules on g and h between them
    w.add_rule(RewriteRule("g-one", (), term("(g x)"), term("1")))
    w.add_rule(RewriteRule("f-first", (), term("(f x)"), term("(h x)")))
    w.add_rule(RewriteRule("h-two", (), term("(h x)"), term("2")))
    w.add_rule(RewriteRule("f-second", (), term("(f x)"), term("3")))
    w.add_rule(RewriteRule("g-three", (), term("(g x)"), term("3")))
    rule_of = {id(r.lhs): r.name for r in w.rules_by_name.values()}
    tried = []

    def counting_match(pattern, t, sigma=None):
        if id(pattern) in rule_of:  # not match's own calls on subterms
            tried.append(rule_of[id(pattern)])
        return match(pattern, t, sigma)

    monkeypatch.setattr(simplify, "match", counting_match)
    out = simplify_clause(clause("(equal (f y) z)"), w, Budget(PROOF_STEPS))
    # (f y) -> (h y) by f-first, the first admitted; then (h y) -> 2. A scan of
    # every rule would have tried g-one on (f y) and on (h y) too.
    assert out.children == [clause("(equal 2 z)")]
    assert tried == ["f-first", "h-two"]


PRED_RULES = (
    "(defun p (x) x)\n(defun f (x) x)\n(defun g (n x) x)\n"
    "(defrule p-holds (equal (p x) t))\n"
    "(defrule f-under-p (implies (p x) (equal (f x) 1)))\n"
    "(defrule f-under-not-p (implies (not (p x)) (equal (f x) 2)))\n"
    "(defrule g-on-nat (implies (natp n) (equal (g n x) x)))\n"
)


def rewrite(src, world, assumed_nil=()):
    """One literal rewritten with the other literals' context, as simplify_clause does."""
    budget = simplify.Budget(100)
    ctx = simplify._Context(frozenset(), frozenset(term(s) for s in assumed_nil))
    return simplify._rewrite(term(src), world, ctx, budget, 0), budget


def test_a_hypothesis_another_literal_assumes_nil_is_not_relieved():
    w = make_world(PRED_RULES)
    # p-holds would relieve (p a) by rewriting; the assumption wins, and only
    # the negated hypothesis, whose atom is assumed nil, is relieved
    assert rewrite("(f a)", w)[0] == Quote(1)
    assert rewrite("(f a)", w, assumed_nil=["(p a)"])[0] == Quote(2)


def test_a_hypothesis_ground_after_matching_is_evaluated_within_any_depth():
    w = with_settings(make_world(PRED_RULES), max_rewrite_depth=0)
    got, budget = rewrite("(g 3 a)", w)
    assert got == Var("a") and not budget.depth_cut
    got, budget = rewrite("(g -1 a)", w)
    assert got == term("(g -1 a)") and not budget.depth_cut


def test_the_backchain_depth_cut_leaves_the_rule_unfired_with_a_diagnostic():
    w = make_world(PRED_RULES)
    clause_ = clause("(equal (f a) 1)")
    assert simplify_clause(clause_, w, Budget(PROOF_STEPS)).status == "proved"
    out = simplify_clause(clause_, with_settings(w, max_rewrite_depth=0), Budget(PROOF_STEPS))
    assert out.status == "unchanged"
    assert out.diagnostics == ["rewrite backchain depth limit reached while relieving hypotheses"]


def test_an_if_whose_test_rewrites_to_a_constant_becomes_its_branch():
    w = make_world(PRED_RULES)
    assert rewrite("(if (p a) b c)", w)[0] == Var("b")
    assert rewrite("(if (not (p a)) b c)", w)[0] == Var("c")
    assert simplify_clause(clause("(equal (if (p a) b c) b)"), w, Budget(PROOF_STEPS)).status == "proved"


@pytest.mark.parametrize("rules", ["", "(defun h (x) x)\n(defrule unrelated (equal (h x) x))\n"])
def test_an_if_whose_test_folds_picks_its_branch_with_or_without_rules(rules):
    # the rewriting stage picks the branch; an unrelated rule must not be
    # what makes it run
    conjecture = "(implies (consp x) (equal (car x) (if (equal 1 2) 5 (car x))))"
    outcome, world = process_source(rules + f"(thm {conjecture})")
    assert outcome.forms[-1].status == "proved"
    out = simplify_clause(clause("(equal y (if (equal 1 2) 5 y))"), world, Budget(PROOF_STEPS))
    assert out.status == "proved"


def test_a_rule_that_nests_its_own_left_hand_side_stops_at_the_structure_cap():
    src = "(defun f (x) x)\n(defun g (x) x)\n(defrule grow (equal (f x) (g (f x))))\n"
    w = make_world(src)
    out = simplify_clause(clause("(equal (f a) a)"), w, Budget(PROOF_STEPS))
    assert out.status == "unchanged"
    assert out.diagnostics == ["rewriting nested past 300 levels; rewriting disabled for this goal"]
    # the structure cap stopped it, long before the proof budget
    assert out.rule_applications < PROOF_STEPS
    outcome, _ = process_source(src + "(thm (equal (f a) a))")
    assert outcome.forms[-1].status == "failed-with-checkpoints"


SPIN = (
    "(set-testing :depth-cap 20)\n(defun spin (x) (spin x))\n(defun f (x) x)\n(defun g (x) (cons x x))\n"
    "(defrule f-id (equal (f x) x))\n(defrule g-zero (implies (spin 1) (equal (g x) 0)))\n"
)


def test_a_ground_term_or_hypothesis_whose_evaluation_raises_stays_as_it_is():
    w = make_world(SPIN)
    # (f (spin 1)) is ground and raises, so it is kept and f-id is not tried
    assert simplify_clause(clause("(equal (f (spin 1)) (spin 1))"), w, Budget(PROOF_STEPS)).status == "unchanged"
    # g-zero's ground hypothesis (spin 1) raises, so it is not relieved
    assert simplify_clause(clause("(equal (g y) 0)"), w, Budget(PROOF_STEPS)).status == "unchanged"
    outcome, _ = process_source(SPIN + "(thm (equal (f (spin 1)) (spin 1)))\n(thm (equal (g y) 0))\n")
    assert [fr.status for fr in outcome.forms] == ["admitted"] * 6 + ["proved", "falsified"]
    # the first is proved once generalization takes (spin 1) out
    assert [(e.goal_id, e.process) for e in outcome.forms[6].proof.process_log] == [
        ("Goal", "generalize"), ("Goal'", "simplify")
    ]


def test_a_negated_quote_left_by_substitution_drops_out(world):
    # x := '5 leaves (not '5), a false disjunct
    out = simplify_clause(clause("(not (equal x '5))", "(not x)", "(natp y)"), world, Budget(PROOF_STEPS))
    assert (out.status, out.children, out.substitutions) == ("children", [clause("(natp y)")], {"x": term("'5")})


def test_a_negated_quote_drops_out_when_rewriting_is_disabled():
    # the rewriting stage folds (not '5) itself; once the budget is spent,
    # the cleanup drops it
    w = make_world("(defun f (x) x)\n(defun g (x) x)\n(defrule grow (equal (f x) (g (f x))))")
    out = simplify_clause(clause("(not (equal x '5))", "(not x)", "(equal (f y) y)"), w, Budget(PROOF_STEPS))
    assert (out.status, out.children) == ("children", [clause("(equal (f y) y)")])
    assert out.diagnostics == ["rewriting nested past 300 levels; rewriting disabled for this goal"]


# relieving (q a) rewrites (q a), whose rule asks to relieve (q a) again
SELF_RELIEVING = "(defun q (x) (consp x))\n(defrule r (implies (q x) (equal (q x) t)))\n"


def _structured_thm(tmp_path, capsys, src: str, depth: int) -> str:
    path = tmp_path / "relieve.lisp"
    path.write_text(src + "(thm (q a))\n")
    assert cli.main([str(path), "--format", "structured", "--max-rewrite-depth", str(depth)]) == 1
    return capsys.readouterr().out


def test_backchaining_counts_toward_the_structure_cap(tmp_path, capsys):
    # the nesting cap, not the Python stack, ends a backchain the depth allows
    out = _structured_thm(tmp_path, capsys, SELF_RELIEVING, 100000)
    assert "Goal: rewriting nested past 300 levels; rewriting disabled for this goal" in out
    assert "Traceback" not in out and "RecursionError" not in out


def test_a_relief_spends_a_proof_step(tmp_path, capsys, monkeypatch):
    # with two such rules the reliefs double at each backchain level, and the
    # proof budget is what bounds them
    relieve, calls = simplify._relieve, []

    def spy(*args):
        calls.append(args)
        assert len(calls) <= 5000, "reliefs unbounded"
        return relieve(*args)

    monkeypatch.setattr(simplify, "_relieve", spy)
    out = _structured_thm(tmp_path, capsys, SELF_RELIEVING + "(defrule r2 (implies (q x) (equal (q x) t)))\n", 30)
    assert "Goal: proof budget exhausted; rewriting disabled for this goal" in out
    assert len(calls) <= 5000
