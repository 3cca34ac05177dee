"""Exact solvers and certificate builders for the dimension parameters.

Order dimension is computed by covering critical pairs with reversible
classes (iterative deepening with incremental acyclicity pruning and
forward checking on mutual arcs), convex dimension by the width of the
meet-irreducible subposet, and fractional dimension by an exact rational
LP with column generation priced by a branch and bound over reversible
sets of critical pairs. `dim`, `se` and `fdim` read their pairs and pair
relations from the poset's cached `Poset.pair_data`, for posets and
geometries alike: extensions reversing every critical pair reverse every
incomparable pair (Trotter 1992). The rows are shared by element, and a
mutual row `M[p] & below[p]` is formed where it is used. Each returned
number's certificate is verified; a failed check raises AssertionError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from operator import or_
from typing import Optional, Sequence

from .certificates import (BooleanRealizer, FractionalRealizer, Realizer,
                           query_string, realizer_from_reversible_classes,
                           verify_boolean_realizer, verify_fractional_realizer,
                           verify_realizer)
from .constructions import is_pkn, jkn_members, pkn, _check_kn
from .errors import (BudgetExceeded, InvalidRealizer, MalformedCertificate,
                     MaxTriesExceeded, NotDistinguishing, ParamRange)
from .geometry import (ConvexGeometry, ConvexRealizer, mask_to_set,
                       verify_convex_realizer)
from .order import (Poset, _adds_cycle, _bits, _clique, _heaviest_reversible,
                    extend_reversing, max_down_degree, standard_example_number,
                    width)
from .simplex import CoveringLP


# ---------------------------------------------------------------------------
# order dimension: cover critical pairs with reversible classes

@dataclass
class DimResult:
    dim: int
    realizer: Realizer
    nodes: int


def dm_dimension(P: Poset, budget: Optional[int] = None) -> DimResult:
    """Exact order dimension with a verified realizer.

    Iterative deepening on the number of classes; pairs are assigned
    most-conflicted first, a class accepts a pair only while its pair digraph
    stays acyclic, and a new class may open only after all earlier ones were
    tried. Two exact tests on the mutual-arc rows prune the search:
    blocked[c], the union of the rows of the pairs in class c, rejects a
    pair with a mutual arc into the class (a 2-cycle) without a cycle
    search; and forward checking (Haralick-Elliott 1980) refuses a placement
    that would leave some pair still to be placed blocked in every class
    once all classes are open. Both cut only subtrees that hold no complete
    cover, and the depth-first order is unchanged, so the cover found, and
    the realizer built from it, are those of the unpruned search. Budget
    counts search tree nodes; exceeding it raises BudgetExceeded with the
    bounds proven so far.
    """
    pairs, M, below, _, _ = P.pair_data
    if not pairs:
        ext = extend_reversing(P, [])
        return DimResult(1, Realizer((ext,)), 0)
    t = len(pairs)
    clique = len(_clique(M, below, t))
    order = sorted(range(t), key=lambda p: (-(M[p] & below[p]).bit_count(), p))
    nodes = 0
    for ncolors in range(max(2, clique), t + 1):
        # depth-first on an explicit stack: picks[i] is the class of pair
        # order[i], used[i] the classes opened by picks[:i], idx the depth
        # and c the next class to try there; c == 0 marks a node just entered.
        # saved[i] is blocked[picks[i]] before order[i] joined that class.
        classes = [0] * ncolors
        blocked = [0] * ncolors
        picks, used, saved = [0] * t, [0] * (t + 1), [0] * t
        idx = c = 0
        while True:
            if c == 0:
                nodes += 1
                if budget is not None and nodes > budget:
                    # every smaller class count was refuted before reaching here
                    raise BudgetExceeded(
                        f"dimension search exceeded {budget} nodes",
                        lower=ncolors, upper=None)
                if idx == t:
                    break
            p = order[idx]
            bit = 1 << p
            u = used[idx]
            top = u + 1 if u < ncolors else ncolors
            row = M[p] & below[p]
            while c < top:
                mine = blocked[c]
                if not mine & bit:
                    # once every class is open: the pairs p's class would
                    # block, less those another class could take (a placed
                    # pair is never blocked in its own, so none is left)
                    dead = 0
                    if u == ncolors or c + 1 == ncolors:
                        dead = mine | row
                        for k, other in enumerate(blocked):
                            if k != c:
                                dead &= other
                                if not dead:
                                    break
                    if not dead and not _adds_cycle(M, classes[c], p):
                        break
                c += 1
            if c < top:
                saved[idx] = blocked[c]
                blocked[c] |= row
                classes[c] |= bit
                picks[idx] = c
                idx += 1
                used[idx] = u if c < u else c + 1
                c = 0
            elif idx:
                idx -= 1
                c = picks[idx]
                classes[c] &= ~(1 << order[idx])
                blocked[c] = saved[idx]
                c += 1
            else:
                break
        if idx == t:
            groups = [[pairs[p] for p in _bits(cls)] for cls in classes if cls]
            return DimResult(ncolors, realizer_from_reversible_classes(P, groups),
                             nodes)
    raise AssertionError("covering with one class per pair always succeeds")


# ---------------------------------------------------------------------------
# convex dimension: width of the meet-irreducible subposet

@dataclass
class CdimResult:
    cdim: int
    realizer: ConvexRealizer


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

    Each chain of a minimum chain cover is extended to a maximal chain of
    the geometry and converted to its compatible order. These orders
    realize G (Edelman-Jamison 1985); verify_convex_realizer checks it, and
    a failure raises AssertionError.
    """
    wr = width(G.poset, G.meet_irr)
    perms = tuple(_interpolate_chain(G, [G.masks[i] for i in chain])
                  for chain in wr.chains)
    if not verify_convex_realizer(G, perms):
        raise AssertionError("interpolated chain cover does not realize G")
    return CdimResult(wr.width, ConvexRealizer(perms))


# ---------------------------------------------------------------------------
# fractional dimension: exact covering LP with column generation

@dataclass
class FdimResult:
    fdim: Fraction
    realizer: FractionalRealizer
    duals: tuple
    rows: tuple         # the critical pairs, in the order of duals
    iterations: int
    nodes: int = 0      # pricing search nodes over all rounds
    pivots: int = 0     # simplex pivots over all rounds


def _reversal_pattern(ext: tuple, rows: Sequence) -> int:
    pos = {x: i for i, x in enumerate(ext)}
    pat = 0
    for j, (a, b) in enumerate(rows):
        if pos[a] > pos[b]:
            pat |= 1 << j
    return pat


def fractional_dimension(P: Poset, budget: Optional[int] = None) -> FdimResult:
    """Exact fractional dimension with an optimal fractional realizer.

    Solves the covering LP over critical pairs by column generation. The
    pricing step needs the linear extension that reverses the most dual
    weight. The pairs one extension reverses form a reversible set, and
    extend_reversing realises any reversible set, so with non-negative duals
    that is the heaviest reversible set of pairs, found by an exact branch
    and bound over the pair digraph; optimality is thus certified against
    every linear extension without enumerating them. The optimum is
    cross-verified against all incomparable pairs, and that cannot fail:
    every incomparable pair (x, y) has a critical pair (a, b) with a <= x
    and y <= b (Trotter 1992), and an extension that puts b before a puts
    y before x, so weights covering the critical pairs cover every
    incomparable pair. A failed check raises AssertionError.

    Budget counts pricing nodes over all rounds; exceeding it raises
    BudgetExceeded with exact bounds: upper is the restricted LP's optimum,
    whose primal (in `partial`) is a fractional realizer, and lower is the
    best Farley bound opt / v, with v the largest price a round found, or,
    for the interrupted round, an upper bound on it.
    """
    rows, M, below, _, _ = P.pair_data
    if not rows:
        ext = extend_reversing(P, [])
        return FdimResult(Fraction(1),
                          FractionalRealizer(((ext, Fraction(1)),)),
                          (), (), 0)
    t = len(rows)
    nodes = 0
    # the best Farley bound as the pair (numerator, denominator), compared
    # by cross-multiplication
    lower_num, lower_den = 0, 1
    patterns = []
    witnesses = []
    covered = 0
    # one greedy reversible set per pair no earlier seed reverses: every
    # pair is covered, so the first LP is feasible
    for p in range(t):
        if (covered >> p) & 1:
            continue
        members, blocked = 1 << p, M[p] & below[p]
        for q in range(t):
            if q != p and not (blocked >> q) & 1 and not _adds_cycle(M, members, q):
                members |= 1 << q
                blocked |= M[q] & below[q]
        ext = extend_reversing(P, [rows[q] for q in _bits(members)])
        pat = _reversal_pattern(ext, rows)
        covered |= pat
        patterns.append(pat)
        witnesses.append(ext)
    seen = set(patterns)
    lp = CoveringLP(patterns, t)
    iterations = 0
    while True:
        iterations += 1
        # the duals over lp.D: a uniform scale of the weights leaves the
        # pricing search's choices unchanged
        weights = lp.duals()
        price, members, used = _heaviest_reversible(
            M, below, weights, None if budget is None else budget - nodes)
        nodes += used
        # Farley: y divided by the largest price is dual feasible
        total = sum(weights)
        if total * lower_den > lower_num * price:
            lower_num, lower_den = total, price
        if members is None:
            opt, _, f = lp.solution()
            raise BudgetExceeded(
                f"fractional dimension pricing exceeded {budget} nodes",
                lower=Fraction(lower_num, lower_den), upper=opt,
                partial=_weighted(witnesses, f))
        if price <= lp.D:
            break
        ext = extend_reversing(P, [rows[q] for q in _bits(members)])
        pat = _reversal_pattern(ext, rows)
        if sum(weights[j] for j in _bits(pat)) != price:
            raise AssertionError("pricing missed a heavier reversible set")
        if pat in seen:
            raise AssertionError("pricing returned an existing column")
        seen.add(pat)
        witnesses.append(ext)
        lp.add(pat)
    opt, y, f = lp.solution()
    realizer = _weighted(witnesses, f)
    if verify_fractional_realizer(P, realizer) != (True, opt):
        raise AssertionError("LP optimum's realizer fails verification")
    return FdimResult(opt, realizer, tuple(y), rows, iterations, nodes,
                      lp.pivots)


def _weighted(witnesses: Sequence, f: Sequence) -> FractionalRealizer:
    """The witnesses with nonzero LP weight."""
    return FractionalRealizer(tuple((ext, w) for ext, w in zip(witnesses, f) if w))


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
    A negative t, or a set with a mark outside 1..t, raises
    MalformedCertificate.
    """
    if len(seq.sets) != n:
        raise ParamRange(f"need {n} sets, got {len(seq.sets)}")
    if seq.t < 0:
        raise MalformedCertificate(
            f"malformed distinguishing sequence: t = {seq.t} is negative")
    for i, y in enumerate(seq.sets, 1):
        if y >> seq.t:
            raise MalformedCertificate(
                f"malformed distinguishing sequence: Y_{i} = {y:#b} has a "
                f"mark outside 1..{seq.t}")
    for i, b in jkn_members(k, n):
        union = 0
        for j in _bits(b):
            union |= seq.sets[j]
        if not seq.sets[i - 1] & ~union:
            return False, mask_to_set((1 << (i - 1)) - 1 | b)
    return True, None


def _pkn_geometry(k: int, n: int, G: Optional[ConvexGeometry]) -> ConvexGeometry:
    """G, or pkn(k,n) if G is None; ParamRange unless G is pkn(k,n) in pkn's
    own labelling, on which distinguishing sequences are defined."""
    if G is not None and not is_pkn(G.family, k, n):
        raise ParamRange(f"the given geometry is not pkn({k},{n})")
    return pkn(k, n) if G is None else G


def distinguishing_to_realizer(k: int, n: int, seq: DistinguishingSequence,
                               G: Optional[ConvexGeometry] = None) -> Realizer:
    """Turn a verified distinguishing sequence into a same-size realizer.

    Mark alpha collects the critical pairs of members whose index carries
    alpha while their tail avoids it; each such class is reversible, and the
    classes jointly cover all critical pairs. A G other than pkn(k,n)
    raises ParamRange.
    """
    ok, witness = verify_distinguishing(k, n, seq)
    if not ok:
        raise NotDistinguishing(f"sequence fails on member {witness}")
    G = _pkn_geometry(k, n, G)
    P = G.poset
    # carriers[alpha] has bit j-1 set iff Y_j carries alpha, so a member's
    # test "alpha in Y_i, in no Y_j with j in B" is one AND per mask
    carriers = [0] * seq.t
    for j, y in enumerate(seq.sets):
        for alpha in _bits(y):
            carriers[alpha] |= 1 << j
    members = [(1 << (i - 1), b, (G.member_index(1 << (i - 1)),
                                  G.member_index((1 << (i - 1)) - 1 | b)))
               for i, b in jkn_members(k, n)]
    classes = [[pair for (i_bit, b, pair) in members
                if c & i_bit and not c & b]
               for c in carriers]
    return realizer_from_reversible_classes(P, classes)


def realizer_to_distinguishing(k: int, n: int, R: Realizer,
                               G: Optional[ConvexGeometry] = None) -> DistinguishingSequence:
    """Read a distinguishing sequence off a verified realizer of pkn(k,n)
    (a G other than pkn(k,n) raises ParamRange)."""
    G = _pkn_geometry(k, n, G)
    P = G.poset
    if not verify_realizer(P, R):
        raise InvalidRealizer("realizer does not verify against pkn")
    # each member's critical pair: its index i, the singleton {i}, the member
    pairs = [(i, G.member_index(1 << (i - 1)), G.member_index((1 << (i - 1)) - 1 | b))
             for i, b in jkn_members(k, n)]
    sets = [0] * n
    pos = [0] * P.n
    for alpha, ext in enumerate(R.extensions):
        for j, x in enumerate(ext):
            pos[x] = j
        for i, a_idx, b_idx in pairs:
            if pos[a_idx] > pos[b_idx]:         # singleton after member: reversed
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


MAX_TRIES = 100


def randomized_distinguishing(k: int, n: int, seed: int):
    """Sample uniform subsets of the probabilistic-bound size until one
    verifies, at most MAX_TRIES times. Returns (sequence, tries used)."""
    _check_kn(k, n)
    t = int(math.floor((k + 1) * 2 ** (k + 2) * math.log(n)))
    rng = random.Random(seed)
    for attempt in range(1, MAX_TRIES + 1):
        sets = tuple(rng.getrandbits(t) for _ in range(n))
        seq = DistinguishingSequence(k, n, t, sets)
        ok, _ = verify_distinguishing(k, n, seq)
        if ok:
            return seq, attempt
    raise MaxTriesExceeded(f"no distinguishing sequence in {MAX_TRIES} tries")


# ---------------------------------------------------------------------------
# explicit fractional certificate for the prefix-forcing families

def pkn_fractional_certificate(k: int, n: int,
                               G: Optional[ConvexGeometry] = None) -> FractionalRealizer:
    """Fractional realizer of pkn(k,n) with total weight 2^(k+1)(2^n-1)/2^n.

    The realizer distinguishing_to_realizer builds from the all-subsets
    sequence, with one mark per nonempty subset Z of the ground set and
    Y_i carrying Z iff i is in Z: the extension for Z reverses the critical
    pair of every meet-irreducible {1..i-1} union B with i in Z and B
    disjoint from Z. Each extension carries weight 2^(k+1)/2^n, and every
    critical pair is reversed by at least 2^(n-k-1) of them, which is
    exactly enough.
    """
    _check_kn(k, n)
    if n > 14:
        raise ParamRange("certificate enumerates 2^n extensions; need n <= 14")
    # mark z stands for the subset Z with bitmask z
    sets = tuple(sum(1 << (z - 1) for z in range(1, 1 << n) if (z >> i) & 1)
                 for i in range(n))
    R = distinguishing_to_realizer(
        k, n, DistinguishingSequence(k, n, (1 << n) - 1, sets), G)
    weight = Fraction(2 ** (k + 1), 2 ** n)
    return FractionalRealizer(tuple((ext, weight) for ext in R.extensions))


# ---------------------------------------------------------------------------
# Boolean dimension, exhaustive at tiny scale

def boolean_dimension_exact(P: Poset):
    """Exact Boolean dimension for posets with at most 6 elements.

    A tuple of linear orders is feasible iff the query strings of ordered
    comparable pairs and of all other ordered pairs are disjoint (the
    accepting set is then the comparable side). An order-dimension realizer
    of size d is feasible with the accepting set {1^d}, so bdim <= dim, and
    dim <= 3 on at most 6 elements (Hiraguchi). Orders are deduplicated by
    their separation behavior, and each size t < dim is decided over every
    t-set of distinct behaviors; the first feasible one found is returned,
    else the dim realizer. Returns (bdim, BooleanRealizer) with bdim orders.
    """
    n = P.n
    if n > 6:
        raise ParamRange("exhaustive Boolean dimension needs <= 6 elements")
    comp = [(x, y) for x in range(n) for y in range(n) if P.lt(x, y)]
    other = [(x, y) for x in range(n) for y in range(n)
             if x != y and not P.lt(x, y)]
    full = (1 << len(comp) * len(other)) - 1
    sep_to_order = {}
    for od in permutations(range(n)):
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
        sep_to_order.setdefault(sep, od)
    orders = dm_dimension(P).realizer.extensions
    covers = (pick for t in range(1, len(orders))
              for pick in combinations(sep_to_order, t)
              if reduce(or_, pick) == full)
    pick = next(covers, None)
    if pick is not None:
        orders = tuple(sep_to_order[sep] for sep in pick)
    pos_list = [{x: i for i, x in enumerate(od)} for od in orders]
    tau = frozenset(query_string(pos_list, x, y) for x, y in comp)
    cert = BooleanRealizer(orders, tau)
    if not verify_boolean_realizer(P, cert):
        raise AssertionError("Boolean search produced a bad certificate")
    return len(orders), cert


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
            budget: Optional[int] = None) -> DimensionReport:
    """Compute the requested parameters of a geometry or a poset with certificates.

    params=None asks for every parameter the input supports: GEOMETRY_PARAMS
    for a ConvexGeometry, POSET_PARAMS for a bare Poset; any other name
    raises ParamRange. Budget exhaustion leaves the affected fields unset
    and adds a warning with the bounds proved instead of failing the whole
    report.
    """
    if isinstance(X, ConvexGeometry):
        kind, supported, P = "geometry", GEOMETRY_PARAMS, X.poset
    else:
        kind, supported, P = "poset", POSET_PARAMS, X
    if params is None:
        params = supported
    bad = set(params) - set(supported)
    if bad:
        raise ParamRange(f"{kind} input supports {'/'.join(supported)}, "
                         f"not {sorted(bad)}")
    report = DimensionReport()
    warnings = []

    if "maxdd" in params:
        report.maxdd = max_down_degree(P)
    if "se" in params:
        report.se = standard_example_number(P)
    if "cdim" in params:
        res = convex_dimension(X)
        report.cdim = res.cdim
        report.convex_realizer = res.realizer
    if "dim" in params:
        try:
            res = dm_dimension(P, budget=budget)
            report.dim = res.dim
            report.realizer = res.realizer
        except BudgetExceeded as exc:
            warnings.append(f"dimension search out of budget (proved >= {exc.lower})")
    if "fdim" in params:
        try:
            res = fractional_dimension(P, budget=budget)
            report.fdim = res.fdim
            report.fractional_realizer = res.realizer
        except BudgetExceeded as exc:
            warnings.append("fractional dimension out of budget "
                            f"(proved {exc.lower} <= fdim <= {exc.upper})")
    report.warnings = tuple(warnings)
    report.check_chain()
    return report
