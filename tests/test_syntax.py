from hypothesis import given, strategies as st

from lmrl import roles as rl
from lmrl.processes import Msg
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
    free_vars,
    size,
    subst_formula,
)

B2 = rl.finite_base(2)
S0 = rl.roleset(B2, [0])
S1 = rl.roleset(B2, [1])
a = Atom("a")


def test_subst_examples():
    assert subst_formula(Atom("p", (Var("x"),)), "x", Var("y")) == Atom("p", (Var("y"),))
    shielded = Forall(0, "x", Atom("p", (Var("x"),)))
    assert subst_formula(shielded, "x", Fun("t", ())) == shielded
    body = Tensor(1, Atom("p", (Var("x"),)), Atom("q", (Var("x"),)))
    ft = Fun("f", (Var("y"),))
    assert subst_formula(body, "x", ft) == Tensor(1, Atom("p", (ft,)), Atom("q", (ft,)))


def test_subst_capture_avoided():
    # substituting a term mentioning the bound variable renames the binder
    f = Forall(0, "y", Atom("p", (Var("x"), Var("y"))))
    out = subst_formula(f, "x", Var("y"))
    assert isinstance(out, Forall)
    assert out.var != "y"
    assert out == Forall(0, "z", Atom("p", (Var("y"), Var("z"))))


def test_size_examples():
    assert size(a) == 0
    assert size(Tensor(0, a, a)) == 1
    assert size(Bang(1, With(0, a, a))) == 2
    assert size(One(0)) == 0


def test_alpha_equivalence():
    f1 = Forall(0, "x", Atom("p", (Var("x"),)))
    f2 = Forall(0, "y", Atom("p", (Var("y"),)))
    assert f1 == f2 and hash(f1) == hash(f2)
    f3 = Forall(0, "x", Atom("p", (Var("z"),)))
    assert f1 != f3


def test_sequent_permutation_equality():
    i1 = IFormula(S0, a)
    i2 = IFormula(S1, Tensor(0, a, a))
    assert Sequent((i1, i2)) == Sequent((i2, i1))
    assert Sequent((i1, i1)) != Sequent((i1,))
    assert hash(Sequent((i1, i2))) == hash(Sequent((i2, i1)))


names = st.sampled_from(["x", "y", "z", "w"])
terms = st.recursive(
    st.builds(Var, names),
    lambda t: st.builds(lambda args: Fun("f", tuple(args)), st.lists(t, min_size=1, max_size=2)),
    max_leaves=4,
)


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 1))
        if kind == 0:
            args = tuple(draw(st.lists(terms, max_size=2)))
            return Atom(draw(st.sampled_from(["a", "b", "p"])), args)
        return One(draw(st.integers(0, 1)))
    kind = draw(st.integers(0, 4))
    r = draw(st.integers(0, 1))
    if kind == 0:
        return Tensor(r, draw(formulas(depth - 1)), draw(formulas(depth - 1)))
    if kind == 1:
        return With(r, draw(formulas(depth - 1)), draw(formulas(depth - 1)))
    if kind == 2:
        return Bang(r, draw(formulas(depth - 1)))
    if kind == 3:
        return Msg(r, 1 - r, draw(formulas(depth - 1)))
    return Forall(r, draw(names), draw(formulas(depth - 1)))


@given(formulas(), names, terms)
def test_subst_identity_when_not_free(f, x, t):
    if x not in free_vars(f):
        assert subst_formula(f, x, t) == f


@given(formulas(), names, terms)
def test_subst_preserves_size(f, x, t):
    assert size(subst_formula(f, x, t)) == size(f)


@given(st.lists(st.builds(IFormula, st.sampled_from([S0, S1]), formulas(1)), max_size=4))
def test_sequent_equality_is_permutation_invariant(items):
    g = Sequent(tuple(items))
    assert g == Sequent(tuple(reversed(items)))
