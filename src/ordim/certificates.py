"""Dimension certificates and their exact verifiers.

Every solver in `dimensions` returns one of these objects alongside its
numeric answer; the verifiers here are deliberately independent of the
solvers and work straight from the definitions.
"""

from __future__ import annotations

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

    def total_weight(self) -> Fraction:
        return sum((w for _, w in self.weighted), Fraction(0))


def _check_permutation(P: Poset, seq) -> None:
    if len(seq) != P.n or set(seq) != set(range(P.n)):
        raise MalformedCertificate(
            f"expected a permutation of 0..{P.n - 1}, got {seq!r}")


def is_linear_extension(P: Poset, seq) -> bool:
    """True iff seq is a permutation listing every element after all elements
    below it. Raises MalformedCertificate when seq is not a permutation."""
    _check_permutation(P, seq)
    placed = 0
    for x in seq:
        if (P.down[x] & ~(1 << x)) & ~placed:
            return False
        placed |= 1 << x
    return True


def _before_rows(P: Poset, seq):
    """rows[x] = bitmask of elements at position >= pos(x) in seq (x itself
    included), i.e. the filter of x in the linear order."""
    rows = [0] * P.n
    acc = 0
    for x in reversed(seq):
        acc |= 1 << x
        rows[x] = acc
    return rows


def verify_realizer(P: Poset, cert: Realizer) -> bool:
    """Exact check: x <= y in P iff x is before y in every extension."""
    if not cert.extensions:
        return False
    for ext in cert.extensions:
        if not is_linear_extension(P, ext):
            return False
    meet = [(1 << P.n) - 1] * P.n
    for ext in cert.extensions:
        rows = _before_rows(P, ext)
        for x in range(P.n):
            meet[x] &= rows[x]
    return all(meet[x] == P.up[x] for x in range(P.n))


def verify_local_realizer(P: Poset, cert: LocalRealizer):
    """Returns (verdict, r) where r is the largest number of partial
    extensions any single element appears in."""
    mult = [0] * P.n
    pos_list = []
    for ple in cert.ples:
        if len(set(ple)) != len(ple) or any(not 0 <= x < P.n for x in ple):
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
        if len(s) != t or set(s) - {"0", "1"}:
            raise MalformedCertificate(f"bad query string {s!r}")
    orders_pos = [{x: i for i, x in enumerate(order)} for order in cert.orders]
    for x in range(P.n):
        for y in range(P.n):
            if x == y:
                continue
            if (query_string(orders_pos, x, y) in cert.tau) != P.lt(x, y):
                return False
    return True


def verify_fractional_realizer(P: Poset, cert: FractionalRealizer):
    """Returns (verdict, total weight). Every ordered incomparable pair must
    collect reversing weight at least 1; arithmetic is exact."""
    for ext, w in cert.weighted:
        if not isinstance(w, (Fraction, int)) or w < 0:
            raise MalformedCertificate(f"weight {w!r} is not a nonnegative rational")
    total = cert.total_weight()
    for ext, _ in cert.weighted:
        if not is_linear_extension(P, ext):
            return False, total
    rows = [_before_rows(P, ext) for ext, _ in cert.weighted]
    for a in range(P.n):
        comp = P.up[a] | P.down[a]
        for b in _bits(~comp & ((1 << P.n) - 1)):
            cover = Fraction(0)
            for (ext, w), r in zip(cert.weighted, rows):
                if w and (r[b] >> a) & 1:   # b before a: pair (a, b) reversed
                    cover += w
            if cover < 1:
                return False, total
    return True, total


def realizer_from_reversible_classes(P: Poset, classes) -> Realizer:
    """Build a realizer by extending each reversible pair class to a linear
    extension that reverses it."""
    exts = []
    for cls in classes:
        ext = extend_reversing(P, cls)
        if ext is None:
            raise MalformedCertificate("class is not reversible")
        exts.append(ext)
    return Realizer(tuple(exts))
