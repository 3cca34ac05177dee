"""Builders for the named geometry families plus random and exhaustive
generators used by the theorem suite."""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterator, Sequence

from .errors import ParamRange
from .geometry import (ConvexGeometry, SetFamily, linear_geometry_masks,
                       validate_convex_geometry, _canonical, _join_masks)


def linear_geometry(perm: Sequence[int]) -> ConvexGeometry:
    """Initial segments of a 1-based permutation: a chain with n+1 members."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ParamRange(f"not a permutation of 1..{n}: {perm!r}")
    fam = SetFamily.from_masks(n, linear_geometry_masks(perm))
    return validate_convex_geometry(fam)


def boolean_algebra(n: int) -> ConvexGeometry:
    """All subsets of {1..n}."""
    if n < 1:
        raise ParamRange("n must be >= 1")
    fam = SetFamily.from_masks(n, range(1 << n))
    return validate_convex_geometry(fam)


def pkn_member(mask: int, k: int) -> bool:
    """Membership rule: a set of size k+i-1 must contain the prefix {1..i-1}."""
    s = mask.bit_count()
    if s <= k:
        return True
    i = s - k + 1
    prefix = (1 << (i - 1)) - 1
    return mask & prefix == prefix

def _check_kn(k: int, n: int) -> None:
    if not 1 <= k <= n - 2:
        raise ParamRange(f"need 1 <= k <= n-2, got k={k}, n={n}")


def pkn_size(k: int, n: int) -> int:
    """|pkn(k, n)|: the C(n, s) sets of each size s <= k, plus C(n, k+1)
    larger ones, one per prefix {1..i-1} and k-subset of {i..n}."""
    return sum(math.comb(n, s) for s in range(k + 2))


def is_pkn(fam: SetFamily, k: int, n: int) -> bool:
    """True iff fam is pkn(k, n), decided by the rules without building it:
    fam is a set of distinct subsets of {1..n}, so it is pkn(k, n) iff it
    has pkn's size and every member passes the membership rule."""
    _check_kn(k, n)
    return (fam.ground_n == n and len(fam) == pkn_size(k, n)
            and all(pkn_member(m, k) for m in fam.masks))


def pkn(k: int, n: int) -> ConvexGeometry:
    """The prefix-forcing family on {1..n}: small sets are free, larger sets
    must contain an initial segment growing with their size.

    Members of size s > k are exactly prefix {1..s-k} union a k-subset of
    the remaining tail, so the family is generated combinatorially instead
    of filtering all 2^n subsets.
    """
    _check_kn(k, n)
    masks = []
    for s in range(k + 1):
        for c in combinations(range(n), s):
            masks.append(sum(1 << e for e in c))
    for s in range(k + 1, n + 1):
        i = s - k + 1
        prefix = (1 << (i - 1)) - 1
        for c in combinations(range(i - 1, n), k):
            masks.append(prefix | sum(1 << e for e in c))
    return validate_convex_geometry(SetFamily.from_masks(n, masks))


def jkn_members(k: int, n: int) -> list:
    """The meet-irreducible members of pkn(k, n) as (i, B) pairs, in
    canonical member order: the member is {1..i-1} union B, where B is the
    bitmask of a k-subset of {i+1..n}, or of all of {i+1..n} when fewer
    than k elements remain."""
    _check_kn(k, n)
    members = {}
    for i in range(1, n + 1):
        for c in combinations(range(i, n), min(k, n - i)):
            b = sum(1 << e for e in c)
            members[(1 << (i - 1)) - 1 | b] = (i, b)
    return [members[m] for m in _canonical(members)]


def jkn(k: int, n: int) -> SetFamily:
    """The meet-irreducible members of pkn(k, n): the jkn_members table."""
    return SetFamily.from_masks(n, [(1 << (i - 1)) - 1 | b
                                    for i, b in jkn_members(k, n)])


def _staircase_mask(n: int, i: int, j: int, k: int) -> int:
    m = (1 << i) - 1
    m |= ((1 << j) - 1) << 2
    m |= ((1 << k) - 1) << (2 + n)
    return m


def qn_pn(n: int):
    """The dimension-3 separation pair on a three-block ground set.

    Ground set: a 2-element block plus two n-element blocks (2n+2 elements).
    Members are prefix staircases [i]|[j]|[k]. The full grid of staircases is
    the first geometry; the second keeps the upper block free but caps the
    row+column budget of the other layers at n, which pins the width of its
    meet-irreducibles to exactly n+1 while order dimension stays 3.
    """
    if n < 3:
        raise ParamRange("need n >= 3")
    ground = 2 + 2 * n
    q_masks = []
    p_masks = []
    for i in range(3):
        for j in range(n + 1):
            for k in range(n + 1):
                m = _staircase_mask(n, i, j, k)
                q_masks.append(m)
                if i == 2 or j + k <= n:
                    p_masks.append(m)
    qg = validate_convex_geometry(SetFamily.from_masks(ground, q_masks))
    pg = validate_convex_geometry(SetFamily.from_masks(ground, p_masks))
    return qg, pg


def _check_random(n: int, t: int) -> None:
    if n < 1 or t < 1:
        raise ParamRange("need n >= 1 and t >= 1")


def random_geometry(n: int, t: int, seed: int) -> ConvexGeometry:
    """Join of t uniformly random linear geometries; deterministic per seed."""
    _check_random(n, t)
    rng = random.Random(seed)
    perms = [list(range(1, n + 1)) for _ in range(t)]
    for perm in perms:
        rng.shuffle(perm)
    current = _join_masks(linear_geometry_masks(p) for p in perms)
    return validate_convex_geometry(SetFamily.from_masks(n, current))


def _check_enumerable(n: int) -> None:
    if not 1 <= n <= 5:
        raise ParamRange("enumeration supports 1 <= n <= 5")


def enumerate_geometries(n: int) -> Iterator[ConvexGeometry]:
    """Every labeled convex geometry on {1..n}, exactly once, for 1 <= n <= 5.

    Families are grown one set at a time in canonical (size, value) order,
    read from a rank table, keeping intersection closure and one-element
    accessibility as invariants. A state is cut once some member has no
    one-element extension present and all its extensions rank at or before
    the last member: later members rank after it, so none can be added. The
    ground set ranks last, so a state ending in it survives the cut iff it
    passes the extension axiom, and exactly those states are emitted.
    n = 5 gives 59,386 geometries.
    """
    _check_enumerable(n)
    full = (1 << n) - 1
    rank = [0] * (full + 1)
    for r, m in enumerate(_canonical(range(full + 1))):
        rank[m] = r
    ext = [[m | 1 << e for e in range(n) if not m >> e & 1] for m in range(full + 1)]
    # the rank of each set's last extension; the ground set's is never reached
    top = [max(map(rank.__getitem__, xs), default=full + 1) for xs in ext]
    results = []

    def rec(fam: list, members: set):
        last = rank[fam[-1]]
        if any(top[a] <= last and not any(x in members for x in ext[a])
               for a in fam):
            return
        if fam[-1] == full:
            results.append(tuple(fam))
            return
        fresh = {b for a in fam for b in ext[a] if rank[b] > last}
        for b in sorted(fresh, key=rank.__getitem__):
            if all((b & c) in members for c in fam):
                fam.append(b)
                members.add(b)
                rec(fam, members)
                members.discard(b)
                fam.pop()

    rec([0], {0})
    for masks in sorted(results):
        yield validate_convex_geometry(SetFamily.from_masks(n, masks))
