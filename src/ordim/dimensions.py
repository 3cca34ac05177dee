"""Exact solvers and certificate builders for the dimension parameters.

Order dimension is computed by covering critical pairs with reversible
classes (iterative deepening with incremental acyclicity pruning), convex
dimension by the width of the meet-irreducible subposet, and fractional
dimension by an exact rational LP with column generation priced over the
downset lattice. Every returned number carries a certificate its verifier
accepts.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .certificates import (BooleanRealizer, FractionalRealizer, Realizer,
                           query_string, realizer_from_reversible_classes,
                           verify_boolean_realizer, verify_fractional_realizer,
                           verify_realizer, _before_rows)
from .constructions import jkn, pkn, _check_kn
from .errors import (BudgetExceeded, InvalidRealizer, MaxTriesExceeded,
                     NotDistinguishing, ParamRange, TooManyExtensions)
from .geometry import (ConvexGeometry, ConvexRealizer, geometry_critical_pairs,
                       mask_to_set, verify_convex_realizer)
from .order import (Poset, WidthResult, _adds_cycle, _bits, _clique,
                    critical_pairs, downset_lattice, extend_reversing,
                    incomparable_pairs, max_down_degree, max_weight_reversal,
                    pair_digraph, standard_example_number, width)


# ---------------------------------------------------------------------------
# order dimension: cover critical pairs with reversible classes

def _conflict_rows(M: Sequence[int], t: int) -> list:
    """Mutual arcs in the pair digraph: p, q can never share a class."""
    rows = [0] * t
    for p in range(t):
        for q in _bits(M[p]):
            if (M[q] >> p) & 1:
                rows[p] |= 1 << q
    return rows


@dataclass
class DimResult:
    dim: int
    realizer: Realizer
    nodes: int
    lower_bound_clique: int


def dm_dimension(P: Poset, budget: Optional[int] = None,
                 crit: Optional[Sequence] = None) -> DimResult:
    """Exact order dimension with a verified realizer.

    Iterative deepening on the number of classes; pairs are assigned
    most-conflicted first, a class accepts a pair only while its pair digraph
    stays acyclic, and a new class may open only after all earlier ones were
    tried. Budget counts search tree nodes; exceeding it raises
    BudgetExceeded with the bounds proven so far.
    """
    pairs = list(crit) if crit is not None else critical_pairs(P)
    if not pairs:
        ext = extend_reversing(P, [])
        return DimResult(1, Realizer((ext,)), 0, 1)
    t = len(pairs)
    M = pair_digraph(P, pairs)
    conflicts = _conflict_rows(M, t)
    clique = len(_clique(conflicts, t))
    order = sorted(range(t), key=lambda p: (-conflicts[p].bit_count(), p))
    nodes = 0
    total_nodes = 0

    def search(ncolors: int) -> Optional[list]:
        nonlocal nodes
        classes = [0] * ncolors

        def bt(idx: int, used: int) -> bool:
            nonlocal nodes
            nodes += 1
            if budget is not None and total_nodes + nodes > budget:
                # every smaller class count was refuted before reaching here
                raise BudgetExceeded(
                    f"dimension search exceeded {budget} nodes",
                    lower=ncolors, upper=None)
            if idx == t:
                return True
            p = order[idx]
            for c in range(min(used + 1, ncolors)):
                if not _adds_cycle(M, classes[c], p):
                    classes[c] |= 1 << p
                    if bt(idx + 1, max(used, c + 1)):
                        return True
                    classes[c] &= ~(1 << p)
            return False

        if bt(0, 0):
            return classes
        return None

    start = max(2, clique)
    for ncolors in range(start, t + 1):
        nodes = 0
        classes = search(ncolors)
        total_nodes += nodes
        if classes is not None:
            groups = [[pairs[p] for p in _bits(cls)] for cls in classes if cls]
            realizer = realizer_from_reversible_classes(P, groups)
            if not verify_realizer(P, realizer):
                raise AssertionError("solver produced a non-verifying realizer")
            return DimResult(ncolors, realizer, total_nodes, clique)
    raise AssertionError("covering with one class per pair always succeeds")


# ---------------------------------------------------------------------------
# convex dimension: width of the meet-irreducible subposet

@dataclass
class CdimResult:
    cdim: int
    realizer: Optional[ConvexRealizer]
    width_result: WidthResult
    verified: bool


def _interpolate_chain(G: ConvexGeometry, chain_masks: Sequence[int]) -> tuple:
    """Compatible order of a maximal chain through the given member chain."""
    n = G.ground_n
    full = (1 << n) - 1
    order = []
    cur = 0
    for target in list(chain_masks) + [full]:
        while cur != target:
            step = None
            for e in _bits(target & ~cur):
                if (cur | (1 << e)) in G.family:
                    step = e
                    break
            if step is None:
                raise AssertionError("no one-element step inside interval")
            cur |= 1 << step
            order.append(step + 1)
    return tuple(order)


def convex_dimension(G: ConvexGeometry) -> CdimResult:
    """Convex dimension = width of the meet-irreducibles, with a realizer.

    Each chain of the minimum chain cover is extended to a maximal chain of
    the geometry and converted to its compatible order; the join of the
    resulting linear geometries is verified to reproduce the family. If that
    verification ever failed the width value would still stand, and the
    certificate would be omitted.
    """
    wr = width(G.poset, G.meet_irr)
    if wr.width == 0:
        # single-member family {0}=X cannot occur (ground >= 1), keep guard
        raise AssertionError("geometry without meet-irreducibles")
    perms = tuple(_interpolate_chain(G, [G.masks[i] for i in chain])
                  for chain in wr.chains)
    ok = verify_convex_realizer(G, perms)
    return CdimResult(wr.width, ConvexRealizer(perms) if ok else None, wr, ok)


# ---------------------------------------------------------------------------
# fractional dimension: exact covering LP with column generation

@dataclass
class FdimResult:
    fdim: Fraction
    realizer: FractionalRealizer
    duals: tuple
    rows: tuple         # the incomparable pairs constrained in the final LP
    iterations: int


def _reversal_pattern(ext: tuple, rows: Sequence) -> int:
    pos = {x: i for i, x in enumerate(ext)}
    pat = 0
    for j, (a, b) in enumerate(rows):
        if pos[a] > pos[b]:
            pat |= 1 << j
    return pat


def fractional_dimension(P: Poset, ideal_limit: int = 500_000,
                         crit: Optional[Sequence] = None) -> FdimResult:
    """Exact fractional dimension with an optimal fractional realizer.

    Solves the covering LP over critical pairs by column generation: the
    pricing step finds a linear extension of maximum total dual weight by
    dynamic programming over the downset lattice, so optimality is certified
    against every linear extension without enumerating them. The optimum is
    cross-verified against all incomparable pairs; if that ever failed, the
    violated pairs would join the constraint rows and the solve would repeat.
    """
    from .simplex import solve_covering

    rows = list(crit) if crit is not None else critical_pairs(P)
    if not rows:
        ext = extend_reversing(P, [])
        return FdimResult(Fraction(1),
                          FractionalRealizer(((ext, Fraction(1)),)),
                          (), (), 0)
    ideals = downset_lattice(P, ideal_limit)
    M = pair_digraph(P, rows)

    while True:
        t = len(rows)
        patterns = []
        witnesses = []
        seen = set()
        for p in range(t):
            members = 0
            for q in [p] + [q for q in range(t) if q != p]:
                if not (members >> q) & 1 and not _adds_cycle(M, members, q):
                    members |= 1 << q
            ext = extend_reversing(P, [rows[q] for q in _bits(members)])
            pat = _reversal_pattern(ext, rows)
            if pat not in seen:
                seen.add(pat)
                patterns.append(pat)
                witnesses.append(ext)
        iterations = 0
        while True:
            iterations += 1
            opt, y, f = solve_covering(patterns, t)
            val, ext = max_weight_reversal(P, rows, y, ideals)
            if val <= 1:
                break
            pat = _reversal_pattern(ext, rows)
            if pat in seen:
                raise AssertionError("pricing returned an existing column")
            seen.add(pat)
            patterns.append(pat)
            witnesses.append(ext)
        weighted = tuple((witnesses[i], f[i]) for i in range(len(patterns)) if f[i])
        realizer = FractionalRealizer(weighted)
        ok, total = verify_fractional_realizer(P, realizer)
        if ok:
            if total != opt:
                raise AssertionError("realizer total differs from LP optimum")
            return FdimResult(opt, realizer, tuple(y), tuple(rows), iterations)
        # defensive path: constrain every incomparable pair and resolve
        all_inc = incomparable_pairs(P)
        if len(rows) == len(all_inc):
            raise AssertionError("LP optimum fails verification on full rows")
        rows = all_inc
        M = pair_digraph(P, rows)


# ---------------------------------------------------------------------------
# explicit fractional certificate for the prefix-forcing families

def _jkn_decomposed(k: int, n: int):
    """Meet-irreducible masks of pkn(k,n) split as (i, B, mask)."""
    out = []
    for mask in jkn(k, n).masks:
        i = 1
        while (mask >> (i - 1)) & 1:
            i += 1
        prefix = (1 << (i - 1)) - 1
        b_mask = mask & ~prefix
        out.append((i, tuple(e + 1 for e in _bits(b_mask)), mask))
    return out


def pkn_fractional_certificate(k: int, n: int,
                               G: Optional[ConvexGeometry] = None) -> FractionalRealizer:
    """Fractional realizer of pkn(k,n) with total weight 2^(k+1)(2^n-1)/2^n.

    One extension per nonempty subset Z of the ground set: it drops every
    meet-irreducible whose tail avoids Z directly below its own singleton,
    front-loading the corresponding critical pairs. Each extension carries
    weight 2^(k+1)/2^n, and every critical pair is reversed by at least
    2^(n-k-1) of them, which is exactly enough.
    """
    _check_kn(k, n)
    if n > 14:
        raise ParamRange("certificate enumerates 2^n extensions; need n <= 14")
    if G is None:
        G = pkn(k, n)
    P = G.poset
    members = _jkn_decomposed(k, n)
    weight = Fraction(2 ** (k + 1), 2 ** n)
    weighted = []
    for z_mask in range(1, 1 << n):
        anchors = []
        for i in range(1, n + 1):
            if not (z_mask >> (i - 1)) & 1:
                continue
            for (mi, mb, mmask) in members:
                if mi == i and all(not (z_mask >> (j - 1)) & 1 for j in mb):
                    anchors.append(G.member_index(mmask))
            anchors.append(G.member_index(1 << (i - 1)))
        # a pair (a, b) puts b before a, so the anchors come in list order
        ext = extend_reversing(P, [(anchors[u + 1], anchors[u])
                                   for u in range(len(anchors) - 1)])
        if ext is None:
            raise AssertionError("anchor chain conflicts with the order")
        weighted.append((ext, weight))
    return FractionalRealizer(tuple(weighted))


# ---------------------------------------------------------------------------
# distinguishing sequences for pkn

@dataclass(frozen=True)
class DistinguishingSequence:
    """Subsets Y_1..Y_n of {1..t} encoding a candidate realizer of pkn(k,n).

    sets[i-1] is the bitmask of Y_i over bit positions 0..t-1.
    """
    k: int
    n: int
    t: int
    sets: tuple

    def set_of(self, i: int) -> tuple:
        return tuple(b + 1 for b in _bits(self.sets[i - 1]))


def verify_distinguishing(k: int, n: int, seq: DistinguishingSequence):
    """Check the distinguishing condition against every meet-irreducible.

    Returns (True, None) or (False, failing_member_set). The condition for
    member prefix+B at index i: some mark of Y_i appears in no Y_j with j in B.
    """
    if len(seq.sets) != n:
        raise ParamRange(f"need {n} sets, got {len(seq.sets)}")
    for (i, b_elems, mmask) in _jkn_decomposed(k, n):
        union = 0
        for j in b_elems:
            union |= seq.sets[j - 1]
        if not seq.sets[i - 1] & ~union:
            return False, mask_to_set(mmask)
    return True, None


def distinguishing_to_realizer(k: int, n: int, seq: DistinguishingSequence,
                               G: Optional[ConvexGeometry] = None) -> Realizer:
    """Turn a verified distinguishing sequence into a same-size realizer.

    Mark alpha collects the critical pairs of members whose index carries
    alpha while their tail avoids it; each such class is reversible, and the
    classes jointly cover all critical pairs.
    """
    ok, witness = verify_distinguishing(k, n, seq)
    if not ok:
        raise NotDistinguishing(f"sequence fails on member {witness}")
    if G is None:
        G = pkn(k, n)
    P = G.poset
    members = _jkn_decomposed(k, n)
    classes = []
    for alpha in range(seq.t):
        cls = []
        for (i, b_elems, mmask) in members:
            if (seq.sets[i - 1] >> alpha) & 1 and all(
                    not (seq.sets[j - 1] >> alpha) & 1 for j in b_elems):
                a_idx = G.member_index(1 << (i - 1))
                cls.append((a_idx, G.member_index(mmask)))
        classes.append(cls)
    realizer = realizer_from_reversible_classes(P, classes)
    if not verify_realizer(P, realizer):
        raise AssertionError("distinguishing conversion failed to verify")
    return realizer


def realizer_to_distinguishing(k: int, n: int, R: Realizer,
                               G: Optional[ConvexGeometry] = None) -> DistinguishingSequence:
    """Read a distinguishing sequence off a verified realizer of pkn(k,n)."""
    if G is None:
        G = pkn(k, n)
    P = G.poset
    if not verify_realizer(P, R):
        raise InvalidRealizer("realizer does not verify against pkn")
    members = _jkn_decomposed(k, n)
    sets = [0] * n
    for alpha, ext in enumerate(R.extensions):
        rows = _before_rows(P, ext)
        for (i, _b, mmask) in members:
            a_idx = G.member_index(1 << (i - 1))
            b_idx = G.member_index(mmask)
            if (rows[b_idx] >> a_idx) & 1:      # singleton after member: reversed
                sets[i - 1] |= 1 << alpha
    seq = DistinguishingSequence(k, n, len(R.extensions), tuple(sets))
    ok, witness = verify_distinguishing(k, n, seq)
    if not ok:
        raise AssertionError(f"converted sequence fails on {witness}")
    return seq


def binary_distinguishing(n: int) -> DistinguishingSequence:
    """Optimal-size sequence for k=1: t = 1 + floor(lg n).

    Take the reverse of a linear extension of the cube on t marks and keep
    the first n subsets: they are distinct, nonempty, and never contain a
    later one, which is the whole requirement at k=1.
    """
    if n < 3:
        raise ParamRange("need n >= 3")
    t = 1 + int(math.floor(math.log2(n)))
    cube = sorted(range(1 << t), key=lambda m: (m.bit_count(), m), reverse=True)
    seq = DistinguishingSequence(1, n, t, tuple(cube[:n]))
    ok, witness = verify_distinguishing(1, n, seq)
    if not ok:
        raise AssertionError(f"binary construction fails on {witness}")
    return seq


def randomized_distinguishing(k: int, n: int, seed: int,
                              max_tries: int = 100):
    """Sample uniform subsets of the probabilistic-bound size until one
    verifies. Returns (sequence, tries used)."""
    _check_kn(k, n)
    t = int(math.floor((k + 1) * 2 ** (k + 2) * math.log(n)))
    rng = random.Random(seed)
    for attempt in range(1, max_tries + 1):
        sets = tuple(rng.getrandbits(t) for _ in range(n))
        seq = DistinguishingSequence(k, n, t, sets)
        ok, _ = verify_distinguishing(k, n, seq)
        if ok:
            return seq, attempt
    raise MaxTriesExceeded(f"no distinguishing sequence in {max_tries} tries")


# ---------------------------------------------------------------------------
# Boolean dimension, exhaustive at tiny scale

def boolean_dimension_exact(P: Poset, max_t: int = 4,
                            budget: Optional[int] = None):
    """Exact Boolean dimension for posets with at most 6 elements.

    A tuple of linear orders is feasible iff the query strings of ordered
    comparable pairs and of all other ordered pairs are disjoint (the
    accepting set is then the comparable side). Orders are deduplicated by
    their separation behavior; search is exhaustive per size with an early
    exit on success. Returns (bdim, BooleanRealizer).
    """
    from itertools import permutations
    n = P.n
    if n > 6:
        raise ParamRange("exhaustive Boolean dimension needs <= 6 elements")
    comp = [(x, y) for x in range(n) for y in range(n) if P.lt(x, y)]
    other = [(x, y) for x in range(n) for y in range(n)
             if x != y and not P.lt(x, y)]
    universe = len(comp) * len(other)
    full = (1 << universe) - 1
    orders = list(permutations(range(n)))
    sep_to_order = {}
    for od in orders:
        pos = {x: i for i, x in enumerate(od)}
        bit_c = [pos[x] < pos[y] for x, y in comp]
        bit_o = [pos[x] < pos[y] for x, y in other]
        sep = 0
        u = 0
        for bc in bit_c:
            for bo in bit_o:
                if bc != bo:
                    sep |= 1 << u
                u += 1
        if sep not in sep_to_order:
            sep_to_order[sep] = od
    seps = sorted(sep_to_order, key=lambda s: (-s.bit_count(), s))
    by_bit = [[i for i, s in enumerate(seps) if (s >> u) & 1]
              for u in range(universe)]
    nodes = 0

    def cover(chosen, remaining, depth):
        # branch on the uncovered cell with the fewest candidate orders
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"Boolean search exceeded {budget} nodes")
        if not remaining:
            return chosen
        if depth == 0:
            return None
        pick_cands = None
        m = remaining
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            cands = [i for i in by_bit[u] if i not in chosen]
            if pick_cands is None or len(cands) < len(pick_cands):
                pick_cands = cands
                if not cands:
                    return None
        for i in pick_cands:
            res = cover(chosen + [i], remaining & ~seps[i], depth - 1)
            if res is not None:
                return res
        return None

    for t in range(1, max_t + 1):
        res = cover([], full, t)
        if res is not None:
            chosen_orders = tuple(sep_to_order[seps[i]] for i in res)
            pos_list = [{x: i for i, x in enumerate(od)} for od in chosen_orders]
            tau = frozenset(query_string(pos_list, x, y) for x, y in comp)
            cert = BooleanRealizer(chosen_orders, tau)
            if not verify_boolean_realizer(P, cert):
                raise AssertionError("Boolean search produced a bad certificate")
            return t, cert
    raise BudgetExceeded(f"no Boolean realizer of size <= {max_t}",
                         lower=max_t + 1)


# ---------------------------------------------------------------------------
# the aggregate report

@dataclass
class DimensionReport:
    dim: Optional[int] = None
    cdim: Optional[int] = None
    maxdd: Optional[int] = None
    se: Optional[int] = None
    fdim: Optional[Fraction] = None
    realizer: Optional[Realizer] = None
    convex_realizer: Optional[ConvexRealizer] = None
    fractional_realizer: Optional[FractionalRealizer] = None
    warnings: tuple = ()
    timings: dict = field(default_factory=dict)
    nodes: Optional[int] = None

    def check_chain(self) -> None:
        """Raise AssertionError unless the computed parameters satisfy the
        provable inequalities (checked under python -O too)."""
        if self.cdim is not None and self.dim is not None and self.cdim < self.dim:
            raise AssertionError(f"cdim {self.cdim} < dim {self.dim}")
        if self.dim is not None:
            for low in (self.maxdd, self.se):
                if low is not None and self.dim < low:
                    raise AssertionError(f"dim {self.dim} < lower bound {low}")
            if self.fdim is not None and self.fdim > self.dim:
                raise AssertionError(f"fdim {self.fdim} > dim {self.dim}")


GEOMETRY_PARAMS = ("dim", "cdim", "maxdd", "se", "fdim")
POSET_PARAMS = ("dim", "se", "fdim")


def analyze(X: ConvexGeometry | Poset, params: Optional[Sequence[str]] = None,
            budget: Optional[int] = None,
            ideal_limit: int = 500_000) -> DimensionReport:
    """Compute the requested parameters of a geometry or a poset with certificates.

    params=None asks for every parameter the input supports: GEOMETRY_PARAMS
    for a ConvexGeometry, POSET_PARAMS for a bare Poset; any other name
    raises ParamRange. Budget exhaustion and oversized downset lattices leave
    the affected fields unset and add a warning instead of failing the whole
    report.
    """
    if isinstance(X, ConvexGeometry):
        kind, supported, P = "geometry", GEOMETRY_PARAMS, X.poset
        crit = geometry_critical_pairs(X)
    else:
        kind, supported, P = "poset", POSET_PARAMS, X
        crit = critical_pairs(P)
    if params is None:
        params = supported
    bad = set(params) - set(supported)
    if bad:
        raise ParamRange(f"{kind} input supports {'/'.join(supported)}, "
                         f"not {sorted(bad)}")
    report = DimensionReport()
    warnings = []

    def timed(name, fn):
        t0 = time.perf_counter()
        out = fn()
        report.timings[name] = time.perf_counter() - t0
        return out

    if "maxdd" in params:
        report.maxdd = timed("maxdd", lambda: max_down_degree(P))
    if "se" in params:
        report.se = timed("se", lambda: standard_example_number(P))
    if "cdim" in params:
        res = timed("cdim", lambda: convex_dimension(X))
        report.cdim = res.cdim
        report.convex_realizer = res.realizer
        if not res.verified:
            warnings.append("convex realizer synthesis failed verification")
    if "dim" in params:
        try:
            res = timed("dim", lambda: dm_dimension(P, budget=budget, crit=crit))
            report.dim = res.dim
            report.realizer = res.realizer
            report.nodes = res.nodes
        except BudgetExceeded as exc:
            warnings.append(f"dimension search out of budget (proved >= {exc.lower})")
    if "fdim" in params:
        try:
            res = timed("fdim", lambda: fractional_dimension(
                P, ideal_limit=ideal_limit, crit=crit))
            report.fdim = res.fdim
            report.fractional_realizer = res.realizer
        except TooManyExtensions:
            warnings.append("downset lattice too large, fractional dimension skipped")
    report.warnings = tuple(warnings)
    report.check_chain()
    return report
