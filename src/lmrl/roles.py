"""Role bases and role-set algebra.

Every side condition in both calculi bottoms out in membership tests,
complements, disjoint unions and partition checks over a fixed role base.
The base is either a finite set {0, ..., N-1} with N >= 2 or the set of
all naturals (omega).  Role sets over omega may be cofinite, so sets are
represented as a finite carrier plus a "cofinite" flag; under a finite
base everything is normalized to the plain (non-cofinite) form so that
structural equality coincides with set equality.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RoleBase:
    """Finite(n) when ``size`` is an int >= 2, omega when ``size`` is None."""

    size: int | None

    def __post_init__(self):
        if self.size is not None and self.size < 2:
            raise ValueError("finite role base needs at least 2 roles")

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def __str__(self):
        return f"base {self.size}" if self.is_finite else "base omega"


def finite_base(n: int) -> RoleBase:
    return RoleBase(n)


OMEGA = RoleBase(None)


@dataclass(frozen=True)
class RoleSet:
    """A subset of ``base``: the roles in ``carrier``, complemented if ``cofinite``.

    Canonical form: under a finite base ``cofinite`` is always False; under
    omega a finite set has ``cofinite=False`` and a cofinite one True.
    Use :func:`roleset` instead of the raw constructor.
    """

    base: RoleBase
    carrier: frozenset[int]
    cofinite: bool = False

    def __post_init__(self):
        if self.base.is_finite:
            if self.cofinite:
                raise ValueError("finite-base role sets must be normalized")
            if any(r < 0 or r >= self.base.size for r in self.carrier):
                raise ValueError(f"role out of base: {set(self.carrier)}")
        elif any(r < 0 for r in self.carrier):
            raise ValueError("roles are naturals")

    def __contains__(self, r: int) -> bool:
        return (r in self.carrier) != self.cofinite

    @property
    def is_empty(self) -> bool:
        return not self.carrier and not self.cofinite

    @property
    def is_full(self) -> bool:
        if self.base.is_finite:
            return len(self.carrier) == self.base.size
        return self.cofinite and not self.carrier

    def __str__(self):
        inner = "{" + ",".join(str(r) for r in sorted(self.carrier)) + "}"
        return ("~" if self.cofinite else "") + inner


def roleset(base: RoleBase, roles=(), cofinite: bool = False) -> RoleSet:
    """Build a canonical RoleSet (normalizes cofinite form under a finite base)."""
    carrier = frozenset(roles)
    if base.is_finite and cofinite:
        carrier = frozenset(range(base.size)) - carrier
        cofinite = False
    return RoleSet(base, carrier, cofinite)


def full_set(base: RoleBase) -> RoleSet:
    if not base.is_finite:
        return roleset(base, (), cofinite=True)
    return roleset(base, range(base.size))


def empty_set(base: RoleBase) -> RoleSet:
    return roleset(base, ())


def _same_base(*sets: RoleSet) -> RoleBase:
    base = sets[0].base
    for s in sets[1:]:
        if s.base != base:
            raise ValueError("role sets over mixed bases")
    return base


def complement(r: RoleSet) -> RoleSet:
    return roleset(r.base, r.carrier, not r.cofinite)


def intersect(r1: RoleSet, r2: RoleSet) -> RoleSet:
    base = _same_base(r1, r2)
    match (r1.cofinite, r2.cofinite):
        case (False, False):
            return roleset(base, r1.carrier & r2.carrier)
        case (False, True):
            return roleset(base, r1.carrier - r2.carrier)
        case (True, False):
            return roleset(base, r2.carrier - r1.carrier)
        case _:
            return roleset(base, r1.carrier | r2.carrier, cofinite=True)


def union(r1: RoleSet, r2: RoleSet) -> RoleSet:
    return complement(intersect(complement(r1), complement(r2)))


def is_disjoint(r1: RoleSet, r2: RoleSet) -> bool:
    return intersect(r1, r2).is_empty


def disjoint_union(sets: list[RoleSet]) -> RoleSet | None:
    """Union of pairwise-disjoint sets, or None if any two overlap."""
    if not sets:
        raise ValueError("disjoint_union of nothing has no base")
    base = _same_base(*sets)
    acc = empty_set(base)
    for s in sets:
        if not is_disjoint(acc, s):
            return None
        acc = union(acc, s)
    return acc


def is_partition_of_full(sets: list[RoleSet]) -> bool:
    """True iff the sets are pairwise disjoint and jointly cover the base."""
    u = disjoint_union(sets)
    return u is not None and u.is_full
