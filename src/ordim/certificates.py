"""Dimension certificates and their exact verifiers.

Every solver in `dimensions` returns one of these objects alongside its
numeric answer; the verifiers here are deliberately independent of the
solvers and work straight from the definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import MalformedCertificate
from .order import Poset, _bits, extend_reversing


@dataclass(frozen=True)
class Realizer:
    """A sequence of linear extensions intended to intersect to the order."""
    extensions: Tuple[tuple, ...]

    def __len__(self):
        return len(self.extensions)


@dataclass(frozen=True)
class LocalRealizer:
    """Partial linear extensions covering comparabilities and reversing
    incomparabilities."""
    ples: Tuple[tuple, ...]


@dataclass(frozen=True)
class BooleanRealizer:
    """Linear orders (not necessarily extensions) plus the accepting set of
    query strings."""
    orders: Tuple[tuple, ...]
    tau: frozenset


@dataclass(frozen=True)
class FractionalRealizer:
    """Nonnegative rational weights on linear extensions."""
    weighted: Tuple[Tuple[tuple, Fraction], ...]


def _check_permutation(P: Poset, seq) -> None:
    # 0.0 == 0 and True == 1: only ints proper can serve as indices
    if (len(seq) != P.n or set(map(type, seq)) - {int}
            or not set(seq).issuperset(range(P.n))):
        raise MalformedCertificate(
            f"expected a permutation of 0..{P.n - 1}, got {seq!r}")


def is_linear_extension(P: Poset, seq) -> bool:
    """True iff seq is a permutation listing every element after all elements
    below it. Raises MalformedCertificate when seq is not a permutation.

    Only the cover pairs are checked: the order is the transitive closure of
    its covers, so a sequence that puts every lower cover first puts every
    smaller element first."""
    _check_permutation(P, seq)
    pos = [0] * P.n
    for i, x in enumerate(seq):
        pos[x] = i
    return all(pos[x] < pos[y] for x, y in P.covers)


def verify_realizer(P: Poset, cert: Realizer) -> bool:
    """Exact check: x <= y in P iff x is before y in every extension.

    Decided by the meet of the before rows alone, the before row of x in
    an extension being the elements at or after x: meet[x] == up[x] means
    every extension puts every y >= x at or after x, so each extension is
    linear, while a non-linear extension puts some y > x before x and drops
    y from meet[x]. Each extension ANDs its rows into meet as it is walked
    from the back. Raises MalformedCertificate on any extension that is not
    a permutation, even after one that is not linear."""
    if not cert.extensions:
        return False
    meet = [(1 << P.n) - 1] * P.n
    bit = [1 << x for x in range(P.n)]
    for ext in cert.extensions:
        _check_permutation(P, ext)
        acc = 0
        for x in reversed(ext):
            acc |= bit[x]
            meet[x] &= acc
    return meet == list(P.up)


def verify_local_realizer(P: Poset, cert: LocalRealizer):
    """Returns (verdict, r) where r is the largest number of partial
    extensions any single element appears in."""
    mult = [0] * P.n
    pos_list = []
    for ple in cert.ples:
        if any(type(x) is not int or not 0 <= x < P.n for x in ple) or (
                len(set(ple)) != len(ple)):
            raise MalformedCertificate(f"bad partial extension {ple!r}")
        pos = {x: i for i, x in enumerate(ple)}
        for u in ple:
            mult[u] += 1
            for v in ple:
                if pos[u] < pos[v] and P.lt(v, u):
                    return False, max(mult)
        pos_list.append(pos)
    r = max(mult) if mult else 0
    for x in range(P.n):
        for y in _bits(P.up[x] & ~(1 << x)):
            if not any(x in pos and y in pos and pos[x] < pos[y]
                       for pos in pos_list):
                return False, r
        for y in _bits(~(P.up[x] | P.down[x]) & ((1 << P.n) - 1)):
            if not any(x in pos and y in pos and pos[x] > pos[y]
                       for pos in pos_list):
                return False, r
    return True, r


def query_string(orders_pos, x: int, y: int) -> str:
    return "".join("1" if pos[x] < pos[y] else "0" for pos in orders_pos)


def verify_boolean_realizer(P: Poset, cert: BooleanRealizer) -> bool:
    """x < y in P iff the query string of (x, y) lies in tau."""
    t = len(cert.orders)
    for order in cert.orders:
        _check_permutation(P, order)
    for s in cert.tau:
        if type(s) is not str or len(s) != t or set(s) - {"0", "1"}:
            raise MalformedCertificate(f"malformed query string {s!r}")
    orders_pos = [{x: i for i, x in enumerate(order)} for order in cert.orders]
    for x in range(P.n):
        for y in range(P.n):
            if x == y:
                continue
            if (query_string(orders_pos, x, y) in cert.tau) != P.lt(x, y):
                return False
    return True


def verify_fractional_realizer(P: Poset, cert: FractionalRealizer):
    """Returns (verdict, total weight). Every ordered incomparable pair (a, b)
    must collect weight at least 1 from the extensions that put b before a.

    Arithmetic is exact and in integers: with D the lcm of the weight
    denominators every D*w is an integer, so a sum of weights is >= 1 iff the
    sum of the scaled weights is >= D."""
    for ext, w in cert.weighted:
        # True == 1: a bool is a flag, not a weight
        if type(w) is bool or not isinstance(w, (Fraction, int)) or w < 0:
            raise MalformedCertificate(f"weight {w!r} is not a nonnegative rational")
    D = math.lcm(*(w.denominator for _, w in cert.weighted))
    scaled = [(ext, w.numerator * (D // w.denominator)) for ext, w in cert.weighted]
    total = Fraction(sum(W for _, W in scaled), D)
    for ext, _ in cert.weighted:
        if not is_linear_extension(P, ext):
            return False, total
    # cover[a][b] = D times the weight of the extensions placing b before a
    cover = [[0] * P.n for _ in range(P.n)]
    for ext, W in scaled:
        if W:
            for i, a in enumerate(ext):
                row = cover[a]
                for b in ext[:i]:
                    row[b] += W
    full = (1 << P.n) - 1
    for a in range(P.n):
        row = cover[a]
        for b in _bits(full & ~(P.up[a] | P.down[a])):
            if row[b] < D:
                return False, total
    return True, total


def realizer_from_reversible_classes(P: Poset, classes) -> Realizer:
    """Build and certify a solver's realizer: extend each pair class to a
    linear extension that reverses it, then verify the whole.

    The classes come from a solver, so a class with no reversing extension
    or a realizer that does not verify is a solver bug and raises
    AssertionError."""
    exts = []
    for cls in classes:
        ext = extend_reversing(P, cls)
        if ext is None:
            raise AssertionError("solver produced a non-reversible class")
        exts.append(ext)
    realizer = Realizer(tuple(exts))
    if not verify_realizer(P, realizer):
        raise AssertionError("solver produced a non-verifying realizer")
    return realizer
