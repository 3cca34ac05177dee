"""Brute-force oracles and helpers that only the tests use.

No solver, CLI command or benchmark workload calls these, so they live with
the tests rather than in `ordim`. Three of them recurse as deep as the
instance is large, which a library routine may not.
"""

from fractions import Fraction
from itertools import combinations, permutations

from ordim import ParamRange, Realizer
from ordim.certificates import realizer_from_reversible_classes
from ordim.constructions import _staircase_mask
from ordim.geometry import _canonical
from ordim.order import _adds_cycle, _bits, _clique, extend_reversing, pair_digraph
from ordim.simplex import solve_covering


class CountExceeded(Exception):
    """An enumeration produced more items than the caller allowed."""


def covers_by_definition(P):
    """The pairs (x, y), x < y with nothing strictly between, in increasing
    (x, y) order: x and y are the only elements of [x, y]."""
    return tuple((x, y) for x in range(P.n) for y in _bits(P.up[x] & ~(1 << x))
                 if (P.up[x] & P.down[y]).bit_count() == 2)


def check_order(P):
    """Raise ValueError unless up is reflexive, antisymmetric and transitive
    and down is its transpose."""
    for x in range(P.n):
        if not (P.up[x] >> x) & 1:
            raise ValueError(f"relation not reflexive at {x}")
        for y in _bits(P.up[x]):
            if y != x and (P.up[y] >> x) & 1:
                raise ValueError(f"antisymmetry fails on {x},{y}")
            if P.up[y] & ~P.up[x]:
                raise ValueError(f"transitivity fails at {x},{y}")
        column = sum(1 << y for y in range(P.n) if (P.up[y] >> x) & 1)
        if P.down[x] != column:
            raise ValueError(f"down/up matrices disagree at {x}")


def is_chain(P):
    """Every two elements are comparable."""
    return all(P.up[x].bit_count() + P.down[x].bit_count() == P.n + 1
               for x in range(P.n))


def qn_grid_realizer(n):
    """Three linear extensions of qn's inclusion order, each sorting the
    staircase triples lexicographically under a cyclic rotation of the
    coordinate priorities. Witnesses order dimension <= 3 for the grid."""
    triples = [(i, j, k) for i in range(3) for j in range(n + 1)
               for k in range(n + 1)]
    masks = _canonical([_staircase_mask(n, *t) for t in triples])
    pos = {_staircase_mask(n, *t): t for t in triples}
    exts = []
    for rot in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        order = sorted(range(len(masks)),
                       key=lambda x: tuple(pos[masks[x]][r] for r in rot))
        exts.append(tuple(order))
    return exts


def incomparable_pairs(P):
    """All ordered pairs (a, b) with a parallel b; both orientations appear."""
    out = []
    for a in range(P.n):
        comp = P.up[a] | P.down[a]
        for b in _bits(~comp & ((1 << P.n) - 1)):
            out.append((a, b))
    return out


def linear_extensions(P, limit=None):
    """Yield all linear extensions, smallest-available-element first.

    Raises CountExceeded as soon as more than `limit` extensions would be
    produced.
    """
    n = P.n
    down_strict = [P.down[x] & ~(1 << x) for x in range(n)]
    out_count = 0
    ext = []

    def rec(placed_mask):
        nonlocal out_count
        if len(ext) == n:
            out_count += 1
            if limit is not None and out_count > limit:
                raise CountExceeded(f"more than {limit} linear extensions")
            yield tuple(ext)
            return
        for x in range(n):
            b = 1 << x
            if not placed_mask & b and not down_strict[x] & ~placed_mask:
                ext.append(x)
                yield from rec(placed_mask | b)
                ext.pop()

    yield from rec(0)


def fdim_bruteforce(P):
    """Oracle: enumerate ALL extensions as columns, ALL incomparable pairs as
    rows, one exact LP."""
    inc = incomparable_pairs(P)
    if not inc:
        return Fraction(1)
    row_index = {pair: i for i, pair in enumerate(inc)}
    columns = []
    for ext in linear_extensions(P, limit=100_000):
        pos = {x: i for i, x in enumerate(ext)}
        pat = 0
        for (a, b), i in row_index.items():
            if pos[a] > pos[b]:
                pat |= 1 << i
        columns.append(pat)
    opt, _, _ = solve_covering(sorted(set(columns)), len(inc))
    return opt


def se_bruteforce(P):
    """Oracle: the largest t >= 2 such that some t incomparable pairs
    (a_i, b_i) have a_i < b_j whenever i != j, else 1. Every set of t
    incomparable pairs is tried, for t = 2, 3, ... until none works: a
    standard example of size t contains one of size t - 1."""
    inc = incomparable_pairs(P)
    t = 2
    while any(all(P.lt(a, b) for (a, _), (_, b) in permutations(pick, 2))
              for pick in combinations(inc, t)):
        t += 1
    return max(t - 1, 1)


def bdim_bruteforce(P):
    """Oracle: the least t such that some t linear orders give the
    comparable pairs (x < y) query strings that no other ordered pair of
    distinct elements has, trying every t-set of orders for t = 1, 2, ...
    Repeating an order never helps, so t-sets of distinct orders suffice."""
    n = P.n
    orders = list(permutations(range(n)))
    t = 1
    while True:
        for pick in combinations(orders, t):
            pos = [{x: i for i, x in enumerate(od)} for od in pick]
            strings = {(x, y): tuple(p[x] < p[y] for p in pos)
                       for x in range(n) for y in range(n) if x != y}
            comp = {s for (x, y), s in strings.items() if P.lt(x, y)}
            if not any(s in comp for (x, y), s in strings.items()
                       if not P.lt(x, y)):
                return t
        t += 1


def is_reversible(P, pairs):
    """Decide whether one linear extension can reverse every pair in `pairs`.

    Returns (True, extension, None) or (False, None, strict_alternating_cycle)
    where the cycle is a list of pairs from the input.
    """
    pairs = list(pairs)
    for a, b in pairs:
        if not P.incomparable(a, b):
            raise ParamRange(f"({a},{b}) is not an incomparable pair")
    ext = extend_reversing(P, pairs)
    if ext is not None:
        return True, ext, None
    M = pair_digraph(P, pairs)
    # q is the first pair that closes a cycle with the (acyclic) pairs before it
    before = 0
    for q in range(len(pairs)):
        if _adds_cycle(M, before, q):
            break
        before |= 1 << q
    else:
        raise AssertionError("no extension but pair digraph acyclic")
    # drop every pair some cycle through q can do without; what is left is
    # one cycle through q, listed by walking to the one unvisited successor
    for r in _bits(before):
        if _adds_cycle(M, before & ~(1 << r), q):
            before &= ~(1 << r)
    # The cycle is strict, i.e. has no chord. Every pair left lies on every
    # cycle through q (a pair kept could not be dropped then, and dropping
    # others later only removes cycles). A chord into q, or one that skips
    # forward, would close a shorter cycle through q that misses a pair; any
    # other chord points backwards and closes a cycle that avoids q, inside
    # the acyclic pairs before q.
    cyc = [q]
    step = M[q] & before
    while step:
        v = step.bit_length() - 1
        cyc.append(v)
        before &= ~(1 << v)
        step = M[v] & before
    return False, None, [pairs[i] for i in cyc]


def _is_strict_cycle(P, pairs, idxs):
    k = len(idxs)
    for i in range(k):
        ai = pairs[idxs[i]][0]
        for j in range(k):
            want = (j == (i + 1) % k)
            if bool((P.up[ai] >> pairs[idxs[j]][1]) & 1) != want:
                return False
    return True


def strict_alternating_cycles(P, pairs, max_size=2):
    """All strict alternating cycles of length <= max_size inside `pairs`.

    Cycles are reported as tuples of pairs, canonically rotated to start at
    the smallest pair index. Size 2 is an exhaustive scan; larger sizes via
    DFS over the pair digraph.
    """
    pairs = list(pairs)
    rows = pair_digraph(P, pairs)
    t = len(pairs)
    found = []
    for p in range(t):
        for q in _bits(rows[p] & ~((1 << (p + 1)) - 1)):
            if (rows[q] >> p) & 1 and _is_strict_cycle(P, pairs, [p, q]):
                found.append((pairs[p], pairs[q]))
    if max_size <= 2:
        return found
    seen = set()

    def dfs(start, path, visited):
        if len(path) > max_size:
            return
        v = path[-1]
        for w in _bits(rows[v]):
            if w == start and len(path) >= 3:
                if _is_strict_cycle(P, pairs, path):
                    key = tuple(path)
                    if key not in seen:
                        seen.add(key)
                        found.append(tuple(pairs[i] for i in path))
            elif w > start and w not in visited and len(path) < max_size:
                dfs(start, path + [w], visited | {w})

    for p in range(t):
        dfs(p, [p], {p})
    return found


def maximal_chains(G):
    """Every maximal chain of a convex geometry, reported as its compatible
    order (1-based)."""
    n = G.ground_n
    bottom = G.member_index(0)
    top = G.member_index((1 << n) - 1)
    out = []
    path = []

    def rec(i):
        if i == top:
            out.append(tuple(path))
            return
        for j in G.poset.cover_succ[i]:
            added = G.masks[j] & ~G.masks[i]
            path.append(added.bit_length())  # single added element, 1-based
            rec(j)
            path.pop()

    rec(bottom)
    return out


def convex_realizer_by_join(G, perms):
    """The definition of a convex realizer: every perm orders 1..n (as ints
    proper) and the join of their linear geometries, every intersection
    picking one initial segment of each perm, is the geometry's family."""
    n = G.ground_n
    if not perms or any(not all(type(e) is int for e in p)
                        or sorted(p) != list(range(1, n + 1)) for p in perms):
        return False
    join = {(1 << n) - 1}
    for p in perms:
        segments = [sum(1 << (e - 1) for e in p[:i]) for i in range(n + 1)]
        join = {a & s for a in join for s in segments}
    return sorted(join) == sorted(G.masks)


def dm_dimension_unpruned(P):
    """(dim, realizer, nodes) from the order-dimension search with no
    mutual-arc pruning: each class tries a pair by a cycle search alone.

    The reference for `dm_dimension`, whose pruning may cut only subtrees
    without a complete cover, so both must find the same first cover.
    """
    pairs, M, below, _, _ = P.pair_data
    if not pairs:
        return 1, Realizer((extend_reversing(P, []),)), 0
    t = len(pairs)
    clique = len(_clique(M, below, t))
    order = sorted(range(t), key=lambda p: (-(M[p] & below[p]).bit_count(), p))
    nodes = 0
    for ncolors in range(max(2, clique), t + 1):
        classes = [0] * ncolors
        picks, used = [0] * t, [0] * (t + 1)
        idx = c = 0
        while True:
            if c == 0:
                nodes += 1
                if idx == t:
                    break
            p = order[idx]
            u = used[idx]
            top = u + 1 if u < ncolors else ncolors
            while c < top and _adds_cycle(M, classes[c], p):
                c += 1
            if c < top:
                classes[c] |= 1 << p
                picks[idx] = c
                idx += 1
                used[idx] = u if c < u else c + 1
                c = 0
            elif idx:
                idx -= 1
                c = picks[idx]
                classes[c] &= ~(1 << order[idx])
                c += 1
            else:
                break
        if idx == t:
            groups = [[pairs[p] for p in _bits(cls)] for cls in classes if cls]
            return ncolors, realizer_from_reversible_classes(P, groups), nodes
    raise AssertionError("covering with one class per pair always succeeds")
