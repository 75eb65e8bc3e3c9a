import pytest

from lmrl import roles as rl
from lmrl.cutelim import eta_expand, prove_bounded, translate_cll2
from lmrl.derivation import Calculus, check, checks
from lmrl.syntax import (
    Atom,
    Bang,
    Forall,
    Fun,
    IFormula,
    One,
    Sequent,
    Tensor,
    Var,
    With,
)

B2 = rl.finite_base(2)
B3 = rl.finite_base(3)
S0, S1, S01 = rl.roleset(B2, [0]), rl.roleset(B2, [1]), rl.roleset(B2, [0, 1])
E2 = rl.empty_set(B2)
a, b = Atom("a"), Atom("b")


def goal(*pairs):
    return Sequent(tuple(IFormula(rs, f) for rs, f in pairs))


def test_identity_goal_depth_one():
    d = prove_bounded(goal((S0, a), (S1, a)), Calculus.CONJ, 1)
    assert d is not None and d.rule == "id"


def test_lone_atom_unprovable():
    assert prove_bounded(goal((S0, a)), Calculus.CONJ, 6) is None


def test_tensor_goal_matches_eta():
    t = Tensor(0, a, a)
    g = goal((S0, t), (S1, t))
    d = prove_bounded(g, Calculus.CONJ, 3)
    assert d is not None and check(d) == g
    assert check(d) == check(eta_expand(t, [S0, S1]))


def test_oracle_output_always_checks():
    goals = [
        goal((S0, One(0)),),
        goal((S1, One(0)), (S0, One(0))),
        goal((S0, With(0, a, b)), (S1, a)),
        goal((S0, Bang(0, One(0))),),
        goal((S01, a), (E2, a)),
        goal((S0, Tensor(1, a, b)), (S1, Tensor(1, a, b))),
    ]
    for g in goals:
        d = prove_bounded(g, Calculus.CONJ, 5)
        if d is not None:
            assert check(d) == g


def test_oracle_uses_witness_pool():
    p = lambda t: Atom("p", (t,))
    g = goal((S0, Forall(1, "x", p(Var("x")))), (S1, p(Fun("c", ()))))
    # the only usable witness is the constant harvested from the context
    d = prove_bounded(g, Calculus.CONJ, 3)
    assert d is not None and check(d) == g
    # with an empty context, an extra pool is needed
    g2 = goal((S0, Forall(1, "x", One(0))), (S1, Forall(1, "x", One(0))))
    d2 = prove_bounded(g2, Calculus.CONJ, 4, witness_pool=[Fun("c", ())])
    assert d2 is not None and check(d2) == g2


def test_oracle_disjunctive_calculus():
    g = goal((S1, a), (S0, a))
    d = prove_bounded(g, Calculus.DISJ, 1)
    assert d is not None and checks(d, Calculus.DISJ)
    assert prove_bounded(goal((S0, a), (S1, a)), Calculus.DISJ, 1) is not None
    # but a lone atom still is not derivable
    assert prove_bounded(goal((S01, a),), Calculus.DISJ, 3) is None


def test_oracle_depth_monotone():
    t = Tensor(0, a, a)
    g = goal((S0, t), (S1, t))
    assert prove_bounded(g, Calculus.CONJ, 2) is None
    assert prove_bounded(g, Calculus.CONJ, 3) is not None
    assert prove_bounded(g, Calculus.CONJ, 5) is not None


# ---------------------------------------------------------------------------
# the two-role classical translation


def test_cll2_role_sides():
    left, right = translate_cll2(goal((S0, a), (S1, b)))
    assert left == [b] and right == [a]


def test_cll2_full_set_becomes_right_unit():
    left, right = translate_cll2(goal((S01, a)))
    assert left == [] and right == [One(0)]


def test_cll2_empty_set_becomes_left_unit():
    left, right = translate_cll2(goal((E2, a)))
    assert left == [One(0)] and right == []


def test_cll2_mixed_order_preserved():
    g = goal((S0, a), (S1, b), (S01, a), (E2, b), (S0, Tensor(0, a, b)))
    left, right = translate_cll2(g)
    assert right == [a, One(0), Tensor(0, a, b)]
    assert left == [b, One(0)]


def test_cll2_requires_two_roles():
    with pytest.raises(ValueError):
        translate_cll2(Sequent((IFormula(rl.roleset(B3, [0]), a),)))
