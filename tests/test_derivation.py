import glob
import os
from dataclasses import fields, replace

import pytest

from lmrl import roles as rl
from lmrl.derivation import (
    Calculus,
    DBangNegContract,
    DBangNegDerelict,
    DBangPos,
    DForallPos,
    DId,
    DOneNeg,
    DOnePos,
    DTensorNeg,
    DTensorPos,
    DWithPos,
    RULES,
    Derivation,
    MalformedDerivation,
    RuleViolation,
    build_rule,
    check,
    checks,
    dualize,
    height,
)
from lmrl.parser import parse_problem
from lmrl.printer import format_derivation
from lmrl.syntax import Atom, IFormula, One, Var

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus", "logic")

B2 = rl.finite_base(2)
B3 = rl.finite_base(3)
a = Atom("a")


def load(name):
    with open(os.path.join(CORPUS, name + ".drv")) as f:
        return parse_problem(f.read()).derivation


ALL_FIXTURES = sorted(
    os.path.basename(p)[:-4] for p in glob.glob(os.path.join(CORPUS, "*.drv"))
)
POSITIVE = [n for n in ALL_FIXTURES if n.endswith("-pos")]
NEGATIVE = [n for n in ALL_FIXTURES if n.endswith("-neg")]


def test_rule_fixture_coverage():
    rules = [
        "id",
        "one-pos",
        "one-neg",
        "tensor-neg",
        "tensor-pos",
        "with-neg-l",
        "with-neg-r",
        "with-pos",
        "bang-pos",
        "bang-neg-weaken",
        "bang-neg-derelict",
        "bang-neg-contract",
        "forall-neg",
        "forall-pos",
    ]
    for rule in rules:
        assert any(n.startswith(rule) for n in POSITIVE), f"no positive fixture for {rule}"
        assert any(n.startswith(rule) for n in NEGATIVE), f"no negative fixture for {rule}"


@pytest.mark.parametrize("name", POSITIVE)
def test_positive_fixture_checks(name):
    assert checks(load(name), Calculus.CONJ)


@pytest.mark.parametrize("name", NEGATIVE)
def test_negative_fixture_rejected(name):
    with pytest.raises(RuleViolation):
        check(load(name), Calculus.CONJ)


def test_id_partition_example():
    d = DId(a, (rl.roleset(B3, [0]), rl.roleset(B3, [1]), rl.roleset(B3, [2])))
    assert checks(d, Calculus.CONJ)
    bad = DId(a, (rl.roleset(B2, [0]), rl.roleset(B2, [0])))
    with pytest.raises(RuleViolation) as err:
        check(bad, Calculus.CONJ)
    assert "partition" in str(err.value)


def test_forall_neg_witness_fixture():
    # all-neg over the identity, instantiating with a context variable
    d = load("forall-neg-pos")
    got = check(d, Calculus.CONJ)
    assert len(got) == 2


def test_heights():
    leaf = DId(a, (rl.roleset(B2, [0]), rl.roleset(B2, [1])))
    assert height(leaf) == 1
    assert height(load("one-neg-pos")) == 2
    assert height(DTensorPos(0, leaf, 0, leaf, 0)) == 2


def test_dualize_id_example():
    leaf = DId(a, (rl.roleset(B2, [0]), rl.roleset(B2, [1])))
    dd = dualize(leaf)
    assert checks(dd, Calculus.DISJ)
    assert [str(f.roles) for f in dd.concl] == ["{1}", "{0}"]


def test_dualize_involutive():
    for name in POSITIVE:
        d = load(name)
        assert dualize(dualize(d)).concl == d.concl


def test_dualize_weaken_polarity():
    d = load("bang-neg-weaken-pos")
    dd = dualize(d)
    assert checks(dd, Calculus.DISJ)
    # the weakened occurrence now sits inside its role set
    wk = dd
    assert wk.rule == "bang-neg-weaken"
    assert wk.r in wk.rs


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_duality_iff(name):
    d = load(name)
    assert checks(d, Calculus.CONJ) == checks(dualize(d), Calculus.DISJ)
    assert height(dualize(d)) == height(d)


def test_eigenvariable_capture_rejected():
    px = Atom("p", (__import__("lmrl.syntax", fromlist=["Var"]).Var("x"),))
    idpx = DId(px, (rl.roleset(B2, [0]), rl.roleset(B2, [1])))
    bad = DForallPos(0, "x", idpx, 0)
    with pytest.raises(RuleViolation) as err:
        check(bad, Calculus.CONJ)
    assert "eigenvariable" in str(err.value)


def test_one_rules_polarity():
    assert checks(DOnePos(rl.roleset(B2, [0]), 0), Calculus.CONJ)
    assert not checks(DOnePos(rl.roleset(B2, [1]), 0), Calculus.CONJ)
    # the disjunctive reading flips the test
    assert checks(DOnePos(rl.roleset(B2, [1]), 0), Calculus.DISJ)


def test_omega_base_kernel():
    # the kernel is generic over the unbounded base: cofinite sets work in
    # identities and the duality swaps finite and cofinite parts
    s = rl.roleset(rl.OMEGA, [0, 3])
    d = DId(a, (s, rl.complement(s)))
    assert checks(d, Calculus.CONJ)
    dd = dualize(d)
    assert checks(dd, Calculus.DISJ)
    assert dd.concl[0].roles.cofinite


DISJ_FIXTURES = sorted(
    os.path.basename(p)[:-4]
    for p in glob.glob(os.path.join(CORPUS, "disj", "*.drv"))
)


@pytest.mark.parametrize("name", DISJ_FIXTURES)
def test_disjunctive_fixture_classification(name):
    with open(os.path.join(CORPUS, "disj", name + ".drv")) as f:
        d = parse_problem(f.read()).derivation
    assert checks(d, Calculus.DISJ) == name.endswith("-pos")


# ---------------------------------------------------------------------------
# field schemas


def rule_classes(cls=Derivation):
    """Every concrete rule class, skipping the shared mixins."""
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from rule_classes(sub)


def corpus_nodes():
    paths = glob.glob(os.path.join(CORPUS, "*.drv")) + glob.glob(
        os.path.join(CORPUS, "disj", "*.drv")
    )
    stack = []
    for path in paths:
        with open(path) as f:
            stack.append(parse_problem(f.read()).derivation)
    while stack:
        d = stack.pop()
        yield d
        stack.extend(d.premises)


def test_every_rule_class_occurs_in_the_corpus():
    seen = {type(d) for d in corpus_nodes()}
    assert set(rule_classes()) <= seen


@pytest.mark.parametrize("cls", list(rule_classes()), ids=lambda c: c.__name__)
def test_rule_schema_names_own_fields(cls):
    own = {f.name for f in fields(cls)}
    assert set(cls.schema) <= own
    indices = [i for idx in cls.schema.values() for i in idx]
    assert set(indices) <= own
    # each index field addresses exactly one premise
    assert len(indices) == len(set(indices))
    # the figure names a part of the major for every index field, and for
    # other fields only
    assert set(indices) <= set(cls.parts) <= own


def test_premises_follow_the_schema():
    for d in corpus_nodes():
        assert d.premises == tuple(getattr(d, f) for f in d.schema)
        # rebuild sends exactly the index fields through their premise's map
        shift = [{i: i + 1 for i in range(len(p.concl))} for p in d.premises]
        shifted = d.rebuild(d.premises, shift)
        indices = {i for idx in d.schema.values() for i in idx}
        assert type(shifted) is type(d)
        for f in d.__match_args__:
            want = getattr(d, f) + 1 if f in indices else getattr(d, f)
            assert getattr(shifted, f) == want


# ---------------------------------------------------------------------------
# building a node from its rule figure

SPECIAL = (DId,)  # no major to build from: the parser reads it itself


def test_rule_table_names_every_class():
    assert RULES == {cls.rule: cls for cls in rule_classes()}


def test_builder_rebuilds_every_corpus_node():
    built = set()
    for d in corpus_nodes():
        if isinstance(d, SPECIAL):
            continue
        terms = {f: getattr(d, f) for f in ("witness", "eigen") if f in d.__match_args__}
        again = build_rule(d.rule, d.concl[len(d.concl) - 1], d.premises, **terms)
        assert type(again) is type(d)
        assert format_derivation(again) == format_derivation(d)
        built.add(type(d))
    assert built | set(SPECIAL) == set(rule_classes())


@pytest.mark.parametrize(
    "cls", [c for c in rule_classes() if c.connective is not None], ids=lambda c: c.__name__
)
def test_builder_checks_the_connective(cls):
    premises = [DId(a, (rl.roleset(B2, [0]), rl.roleset(B2, [1])))] * len(cls.schema)
    with pytest.raises(MalformedDerivation, match="major"):
        build_rule(cls.rule, IFormula(rl.roleset(B2, [0]), a), premises, Var("c"), "z")


# ---------------------------------------------------------------------------
# reasons for malformed nodes

R0, R1 = rl.roleset(B2, [0]), rl.roleset(B2, [1])
IDN = DId(a, (R0, R1))  # [{0}]a, [{1}]a


def generic_node(cls):
    """A ``cls`` node over identity premises, each premise's index fields at
    0, 1, ... and every other field a well-typed filler."""
    filler = {"r": 0, "rs": R1, "other": a, "body": a, "var": "x", "witness": Var("c")}
    filler["eigen"] = "z"
    args = {f: IDN for f in cls.schema}
    for idx in cls.schema.values():
        args.update((i, k) for k, i in enumerate(idx))
    return cls(*[args[f] if f in args else filler[f] for f in cls.__match_args__])


def malformed_nodes():
    """(node, the reason ``check`` gives for it) for every way a node's
    conclusion can fail to compute, plus the contraction polarity test."""
    out = []
    for cls in rule_classes():
        for idx in cls.schema.values():
            for i in idx:
                for bad in (-1, 2):  # IDN concludes two occurrences
                    out.append((replace(generic_node(cls), **{i: bad}), "index out of range"))
    out += [
        (DTensorNeg(0, IDN, 0, 0), "needs two distinct occurrences"),
        (DBangNegContract(IDN, 1, 1), "needs two distinct occurrences"),
        (DTensorNeg(0, IDN, 0, 1), "occurrences carry different role sets"),
        (DTensorPos(0, IDN, 0, IDN, 1), "occurrences carry different role sets"),
        (DWithPos(0, IDN, 0, IDN, 1), "occurrences carry different role sets"),
        (DWithPos(0, IDN, 0, DId(Atom("b"), (R0, R1)), 0), "branch contexts differ"),
        (DBangNegContract(IDN, 0, 1), "contracted occurrences differ"),
        (
            DBangNegContract(DOneNeg(R1, 0, DOneNeg(R1, 0, IDN)), 2, 3),
            "only banged formulas contract",
        ),
        (DId(One(0), (R0, R1)), "identity concludes atoms only"),
        (DId(a, ()), "identity needs at least one part"),
    ]
    out = [(d, f"{d.rule} at []: malformed: {reason}") for d, reason in out]
    # ([{1}]!0 a, [{0}]!0 a) twice, tensored on the first occurrences: the
    # two [{0}]!0 a then contract on the wrong side of their role set
    bang = DBangPos(0, DBangNegDerelict(0, IDN, 1), 0)
    wrong = DBangNegContract(DTensorPos(1, bang, 0, bang, 0), 0, 1)
    reason = "(!-neg-contract) wrong polarity for role 0 in {0}"
    out.append((wrong, f"bang-neg-contract at []: {reason}"))
    return out


def test_malformed_node_reasons():
    cases = malformed_nodes()
    # every index field of every rule, twice, and the eleven other cases
    fields_ = sum(len(idx) for c in rule_classes() for idx in c.schema.values())
    assert len(cases) == 2 * fields_ + 11
    got, want = [], []
    for d, reason in cases:
        with pytest.raises(RuleViolation) as err:
            check(d, Calculus.CONJ)
        got.append(str(err.value))
        want.append(reason)
    assert got == want
