"""Set families over a finite ground set and the convex geometry axioms.

Subsets of the ground set {1..n} are bitmasks (element i is bit i-1).
A ConvexGeometry is a validated family together with its inclusion poset,
cover relation, and the irreducible elements every dimension solver needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import AxiomViolation, GroundMismatch, ParamRange
from .order import Poset, _bits, _rows


def set_to_mask(elements: Iterable[int]) -> int:
    """1-based element list to bitmask."""
    m = 0
    for e in elements:
        if e < 1:
            raise ParamRange(f"elements are 1-based, got {e}")
        m |= 1 << (e - 1)
    return m


def mask_to_set(mask: int) -> tuple:
    """Bitmask to sorted 1-based element tuple."""
    return tuple(b + 1 for b in _bits(mask))


def set_label(mask: int) -> str:
    """Compact display form: elements concatenated, no braces or commas."""
    if mask == 0:
        return "∅"
    parts = [str(b + 1) for b in _bits(mask)]
    sep = "" if all(len(p) == 1 for p in parts) else ","
    return sep.join(parts)


def _canonical(masks: Iterable[int]) -> tuple:
    return tuple(sorted(set(masks), key=lambda m: (m.bit_count(), m)))


@dataclass(frozen=True)
class SetFamily:
    """Deduplicated family of subsets of {1..ground_n}, canonically sorted by
    (cardinality, numeric value)."""

    ground_n: int
    masks: tuple

    @classmethod
    def from_masks(cls, ground_n: int, masks: Iterable[int]) -> "SetFamily":
        if ground_n < 1:
            raise ParamRange("ground set must be non-empty")
        masks = _canonical(masks)
        full = (1 << ground_n) - 1
        for m in masks:
            if m & ~full:
                raise ParamRange(f"set {bin(m)} leaves the ground set")
        return cls(ground_n, masks)

    @classmethod
    def from_sets(cls, ground_n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls.from_masks(ground_n, [set_to_mask(s) for s in sets])

    def __len__(self):
        return len(self.masks)

    @cached_property
    def index(self) -> dict:
        return {m: i for i, m in enumerate(self.masks)}

    def __contains__(self, mask: int) -> bool:
        return mask in self.index

    def sets(self) -> list:
        return [mask_to_set(m) for m in self.masks]


@dataclass(frozen=True)
class ConvexGeometry:
    """A validated convex geometry: family plus inclusion poset and caches."""

    family: SetFamily
    poset: Poset
    meet_irr: tuple    # poset indices with exactly one upper cover
    join_irr: tuple    # poset indices with exactly one lower cover

    @property
    def ground_n(self) -> int:
        return self.family.ground_n

    @property
    def masks(self) -> tuple:
        return self.family.masks

    def member_index(self, mask: int) -> int:
        return self.family.index[mask]


def validate_convex_geometry(family: SetFamily) -> ConvexGeometry:
    """Check the three axioms and build the inclusion poset in one pass.

    Raises AxiomViolation naming the first failing axiom with a witness in
    1-based set notation.

    The pass walks the members F in canonical order. Looking up A+e for
    every element e outside A gives the one-element extensions of A, which
    the extension axiom asks of every member but the ground set X.
    Intersection closure is checked locally: any two lower covers A-x and
    A-y of a member A must meet inside F. Given the base and extension
    axioms, that suffices. For members A and B induct on |X∖A| + |X∖B|
    (nothing to show when A or B is X): take a with A+a ∈ F and b with
    B+b ∈ F. If a ∉ B then A∩B = (A+a)∩B, and if b ∉ A then
    A∩B = A∩(B+b), a member by induction either way. Otherwise C = A∩B has
    C+a, C+b, C+a+b ∈ F by induction, so the local check on C+a+b gives
    C ∈ F.

    In a convex geometry every cover adds one element: for members A ⊂ B,
    climb from A to X by one-element extensions; the first step A'+e with
    e ∈ B has A'∩B = A, so A+e = (A'+e)∩B ∈ F. So the one-element
    extensions are the upper covers, and the filter (ideal) row of a member
    is the OR of its upper (lower) covers' rows, built from the top
    (bottom) of the canonical order.

    The pass only accepts. On any fault the pairwise intersection scan, then
    the extension scan, name the axiom and its witness.
    """
    n = family.ground_n
    masks = family.masks
    index = family.index
    full = (1 << n) - 1
    if 0 not in family:
        raise AxiomViolation("base", (), "empty set missing")
    if full not in family:
        raise AxiomViolation("base", mask_to_set(full), "ground set missing")
    m = len(masks)
    singletons = [1 << e for e in range(n)]
    ups = [[] for _ in range(m)]
    for i, a in enumerate(masks):
        for s in singletons:
            j = index.get(a | s)
            if j is not None and j != i:
                ups[i].append(j)
    # canonical order is topological: a one-element extension comes later
    up, down = _rows(range(m), ups)
    poset = Poset(m, tuple(up), tuple(down), tuple(map(tuple, ups)))
    # the ground set is the last member, the only one with nothing above
    if not all(ups[:-1]) or not all(
            masks[p] & masks[q] in index
            for below in poset.cover_pred
            for x, p in enumerate(below) for q in below[:x]):
        _check_intersections(family)
        a = _first_unextendable(masks, index, n)
        if a is None:
            raise AssertionError("local axiom check failed on a convex geometry")
        raise AxiomViolation("extension", mask_to_set(a))
    meet_irr = tuple(i for i in range(m) if len(ups[i]) == 1)
    join_irr = tuple(j for j, d in enumerate(poset.cover_indeg) if d == 1)
    return ConvexGeometry(family, poset, meet_irr, join_irr)


def _check_intersections(family: SetFamily) -> None:
    """Raise on the first pair (B, A), B before A, whose meet is missing."""
    masks = family.masks
    index = family.index
    for i, a in enumerate(masks):
        for b in masks[:i]:
            if a & b not in index:
                raise AxiomViolation("intersection", (mask_to_set(b), mask_to_set(a)))


def _first_unextendable(masks: Iterable[int], members, n: int) -> Optional[int]:
    """First of `masks`, other than the ground set, with no one-element
    extension in `members`; None when every one extends."""
    full = (1 << n) - 1
    for a in masks:
        if a != full and not any(not (a >> e) & 1 and (a | (1 << e)) in members
                                 for e in range(n)):
            return a
    return None


def _join_masks(parts: Iterable[Iterable[int]]) -> set:
    """All intersections picking one member from each of the non-empty
    sequence of families, by iterated pairwise closure, which saturates
    quickly instead of walking the full product."""
    parts = iter(parts)
    current = set(next(parts))
    for other in parts:
        current = {a & b for a in current for b in other}
    return current


def geometry_critical_pairs(G: ConvexGeometry) -> list:
    """All critical pairs of the inclusion poset via the meet-irreducible
    correspondence (far cheaper than the generic definition scan).

    Each meet-irreducible B has one upper cover Y = B + alpha; attach to it
    A, the intersection of all members containing alpha. The pairs (A, B)
    with A and B incomparable biject onto the critical pairs. The rest
    degenerate to A = Y, a comparable pair (every member holding alpha
    already holds all of Y, as on every member of a chain), and are skipped.
    """
    out = []
    masks = G.masks
    for b in G.meet_irr:
        (y,) = G.poset.cover_succ[b]
        diff = masks[y] & ~masks[b]
        if diff.bit_count() != 1:
            raise AssertionError("graded cover should add exactly one element")
        a_mask = (1 << G.ground_n) - 1
        for c in masks:
            if c & diff:
                a_mask &= c
        a = G.member_index(a_mask)
        if G.poset.incomparable(a, b):
            out.append((a, b))
    return sorted(out)


def vc_dimension_shattering(family: SetFamily) -> int:
    """Exact VC dimension by shattering search, smallest size first.

    The trace of member m on a candidate set C is m & C, so C is shattered
    iff the members leave 2^|C| distinct traces. The search stops at the
    first size with no shattered subset (traces of subsets of a shattered set
    are shattered, so the exit is sound).
    """
    masks = family.masks
    singletons = [1 << e for e in range(family.ground_n)]
    for size in range(1, family.ground_n + 1):
        want = 1 << size
        if not any(len({m & c for m in masks}) == want
                   for c in map(sum, combinations(singletons, size))):
            return size - 1
    return family.ground_n


def check_boolean_property(P: Poset):
    """Every nonzero element y must sit atop a Boolean interval.

    With X the meet of the lower covers of y, the interval [X, y] has to be
    isomorphic to the cube with one coordinate per lower cover. Holds on all
    convex geometry posets; fails on non-meet-distributive lattices. Returns
    (True, None) or (False, witness_index).
    """
    for y, covs in enumerate(P.cover_pred):
        m = len(covs)
        if m == 0:
            continue
        common = P.down[covs[0]]
        for c in covs[1:]:
            common &= P.down[c]
        maximal = [z for z in _bits(common) if not (P.up[z] & common & ~(1 << z))]
        if len(maximal) != 1:
            return False, y
        x = maximal[0]
        interval = list(_bits(P.up[x] & P.down[y]))
        if len(interval) != 1 << m:
            return False, y
        # sig(z): the mask of y's lower covers that sit above z. In every
        # poset z <= w gives sig(w) ⊆ sig(z). So [X, y] is the cube iff its 2^m
        # signatures are distinct and z <= at[sig(z) - {c}] for each c in
        # sig(z): by transitivity those one-cover steps give the converse.
        cov = sum(1 << c for c in covs)
        at = {P.up[z] & cov: z for z in interval}
        if len(at) != 1 << m:
            return False, y
        for s, z in at.items():
            for c in _bits(s):
                if not (P.up[z] >> at[s ^ (1 << c)]) & 1:
                    return False, y
    return True, None


def join_geometries(parts: Sequence[ConvexGeometry]) -> ConvexGeometry:
    """The join: all intersections picking one member from each part.

    The result is revalidated defensively.
    """
    if not parts:
        raise ParamRange("need at least one geometry")
    n = parts[0].ground_n
    for g in parts[1:]:
        if g.ground_n != n:
            raise GroundMismatch(f"ground sets differ: {n} vs {g.ground_n}")
    current = _join_masks(g.masks for g in parts)
    return validate_convex_geometry(SetFamily.from_masks(n, current))


@dataclass(frozen=True)
class ConvexRealizer:
    """Compatible orders whose linear geometries join back to the geometry."""
    perms: tuple   # tuples of 1-based elements


def linear_geometry_masks(perm: Sequence[int]) -> list:
    """Initial segments of a 1-based permutation, as masks (empty included)."""
    masks = [0]
    m = 0
    for e in perm:
        m |= 1 << (e - 1)
        masks.append(m)
    return masks


def verify_convex_realizer(G: ConvexGeometry, perms: Sequence[Sequence[int]]) -> bool:
    """True iff every perm orders 1..n (as ints proper: 1.0 and True are
    not) and the joined initial-segment families equal the geometry.

    Decided on the segments, without forming the join J: J = G iff every
    initial segment of every perm is a member of G and every
    meet-irreducible of G is one of those segments.
    - The segments of one perm form a chain, so the meet of two members of
      J, taken perm by perm, picks the smaller segment of each: J is
      intersection-closed. Every segment S is in J (take S from its perm
      and the ground set from the others).
    - If J = G, the segments are members. A meet-irreducible M in J is an
      intersection of segments that are members of G, and a
      meet-irreducible equal to the meet of two members is one of them, so
      M is a segment.
    - Conversely, if the segments are members, J lies inside G, since G is
      intersection-closed. Every member of G is the meet of the
      meet-irreducibles above it (the ground set being the empty meet, a
      segment), and those are segments, so G lies inside J.
    """
    n = G.ground_n
    if not perms:
        return False
    index = G.family.index
    segments = {0}      # the empty segment, a member by the base axiom
    for p in perms:
        if (not all(type(e) is int for e in p)
                or sorted(p) != list(range(1, n + 1))):
            return False
        m = 0
        for e in p:
            m |= 1 << (e - 1)
            if m not in index:
                return False
            segments.add(m)
    masks = G.masks
    return all(masks[i] in segments for i in G.meet_irr)
