"""Finite posets as bitset relation matrices, plus the realizer-theoretic toolkit.

Elements are integers 0..n-1. The order relation is stored as one Python int
per element: ``up[x]`` has bit ``y`` set iff ``x <= y`` (including ``x`` itself).
Row-level bit operations keep everything exact and fast at desk scale without
leaving pure Python.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CountExceeded, CycleError, ParamRange, TooManyExtensions


def _bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Poset:
    """A finite poset given by its full reflexive order relation.

    up[x] and down[x] are bitmasks of the principal filter and ideal of x.
    Construction through the public helpers guarantees the relation is
    reflexive, antisymmetric and transitive; `validate` rechecks.

    covers lists every cover pair (x, y), x < y with nothing strictly
    between, in increasing (x, y) order. A builder that already knows them
    passes them in; otherwise they are derived from `up` on construction.
    """

    n: int
    up: tuple
    down: tuple
    labels: Optional[tuple] = None
    covers: Optional[tuple] = None

    def __post_init__(self):
        if self.covers is None:
            object.__setattr__(self, "covers", self._scan_covers())

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and bool((self.up[x] >> y) & 1)

    def incomparable(self, x: int, y: int) -> bool:
        return x != y and not self.leq(x, y) and not self.leq(y, x)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels else str(x)

    def validate(self) -> None:
        n = self.n
        for x in range(n):
            if not (self.up[x] >> x) & 1:
                raise ValueError(f"relation not reflexive at {x}")
            for y in _bits(self.up[x]):
                if y != x and (self.up[y] >> x) & 1:
                    raise ValueError(f"antisymmetry fails on {x},{y}")
                if self.up[y] & ~self.up[x]:
                    raise ValueError(f"transitivity fails at {x},{y}")
            if self.down[x] != self._column(x):
                raise ValueError(f"down/up matrices disagree at {x}")

    def _column(self, x: int) -> int:
        col = 0
        for y in range(self.n):
            if (self.up[y] >> x) & 1:
                col |= 1 << y
        return col

    def _scan_covers(self) -> tuple:
        out = []
        for x in range(self.n):
            strict = self.up[x] & ~(1 << x)
            shadow = 0
            for z in _bits(strict):
                shadow |= self.up[z] & ~(1 << z)
            for y in _bits(strict & ~shadow):
                out.append((x, y))
        return tuple(out)

    @cached_property
    def up_covers(self) -> tuple:
        adj = [0] * self.n
        for x, y in self.covers:
            adj[x] |= 1 << y
        return tuple(adj)

    @cached_property
    def down_covers(self) -> tuple:
        adj = [0] * self.n
        for x, y in self.covers:
            adj[y] |= 1 << x
        return tuple(adj)

    def is_chain(self) -> bool:
        return all(self.up[x].bit_count() + self.down[x].bit_count() == self.n + 1
                   for x in range(self.n))


def poset_from_relation(n: int, pairs: Iterable, labels=None) -> Poset:
    """Reflexive-transitive closure of the pairs (x, y) meaning x <= y.

    Raises CycleError when the closure would identify distinct elements.
    """
    if n < 0:
        raise ParamRange("n must be nonnegative")
    up = [1 << x for x in range(n)]
    adj = [0] * n
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ParamRange(f"pair ({x},{y}) out of range for n={n}")
        adj[x] |= 1 << y
    # transitive closure, Warshall on bitset rows
    order = list(range(n))
    changed = True
    while changed:
        changed = False
        for x in order:
            new = up[x]
            for y in _bits(adj[x] | (up[x] & ~(1 << x))):
                new |= up[y]
            if new != up[x]:
                up[x] = new
                changed = True
    for x in range(n):
        for y in _bits(up[x]):
            if y != x and (up[y] >> x) & 1:
                raise CycleError([x, y])
    return poset_from_up_rows(up, labels)


def poset_from_up_rows(up: Sequence[int], labels=None) -> Poset:
    """Wrap precomputed filter rows; trusts that they form a valid order."""
    n = len(up)
    down = [0] * n
    for x in range(n):
        for y in _bits(up[x]):
            down[y] |= 1 << x
    return Poset(n, tuple(up), tuple(down), tuple(labels) if labels else None)


# ---------------------------------------------------------------------------
# degrees and distinguished pairs


def down_degree(P: Poset, y: int) -> int:
    return P.down_covers[y].bit_count()


def up_degree(P: Poset, x: int) -> int:
    return P.up_covers[x].bit_count()


def max_down_degree(P: Poset) -> int:
    return max((m.bit_count() for m in P.down_covers), default=0)


def max_up_degree(P: Poset) -> int:
    return max((m.bit_count() for m in P.up_covers), default=0)


def incomparable_pairs(P: Poset):
    """All ordered pairs (a, b) with a parallel b; both orientations appear."""
    out = []
    for a in range(P.n):
        comp = P.up[a] | P.down[a]
        for b in _bits(~comp & ((1 << P.n) - 1)):
            out.append((a, b))
    return out


def critical_pairs(P: Poset):
    """Ordered pairs (a, b), incomparable, with every x < a also < b and
    every y > b also > a."""
    out = []
    for a in range(P.n):
        stricta_down = P.down[a] & ~(1 << a)
        comp = P.up[a] | P.down[a]
        for b in _bits(~comp & ((1 << P.n) - 1)):
            if stricta_down & ~P.down[b]:
                continue
            if P.up[b] & ~(1 << b) & ~P.up[a]:
                continue
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# reversibility of incomparable-pair sets

def pair_digraph(P: Poset, pairs: Sequence) -> list:
    """Digraph on pair indices: arc p -> q iff a_p <= b_q in P (p != q).

    A pair set is reversible exactly when its induced subgraph is acyclic;
    directed cycles correspond to alternating cycles among the pairs.
    """
    t = len(pairs)
    rows = [0] * t
    for p, (ap, bp) in enumerate(pairs):
        row = 0
        for q, (aq, bq) in enumerate(pairs):
            if p != q and (P.up[ap] >> bq) & 1:
                row |= 1 << q
        rows[p] = row
    return rows


def _adds_cycle(M, members: int, p: int) -> bool:
    """Would pair p close a directed cycle of M with the pairs in `members`?

    Breadth-first search from p over bitmask frontiers, inside members | p.
    """
    inside = members | (1 << p)
    seen = 0
    frontier = M[p] & inside
    while frontier:
        if (frontier >> p) & 1:
            return True
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= M[low.bit_length() - 1] & inside
            f ^= low
        frontier = nxt & ~seen
    return False


def _strictify_cycle(P: Poset, pairs, cycle):
    """Shorten an alternating cycle of pair indices until it is strict."""
    cyc = list(cycle)
    while True:
        k = len(cyc)
        if k == 2:
            return cyc
        shortcut = None
        for i in range(k):
            ai = pairs[cyc[i]][0]
            for d in range(2, k):
                j = (i + d) % k
                if (P.up[ai] >> pairs[cyc[j]][1]) & 1:
                    shortcut = (i, j)
                    break
            if shortcut:
                break
        if shortcut is None:
            return cyc
        i, j = shortcut
        if j > i:
            cyc = cyc[:i + 1] + cyc[j:]
        else:
            cyc = cyc[j:i + 1]


def extend_reversing(P: Poset, pairs: Sequence):
    """Linear extension of P placing b before a for every pair (a, b), or None.

    Kahn's algorithm over cover arcs plus the reversal arcs b -> a, smallest
    index first for determinism.
    """
    n = P.n
    succ = list(P.up_covers)
    pred = list(P.down_covers)
    for a, b in pairs:
        succ[b] |= 1 << a
        pred[a] |= 1 << b
    indeg = [pred[y].bit_count() for y in range(n)]
    heap = [x for x in range(n) if indeg[x] == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        x = heapq.heappop(heap)
        out.append(x)
        for y in _bits(succ[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    if len(out) != n:
        return None
    return tuple(out)


def is_reversible(P: Poset, pairs: Sequence):
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
    cyc = [q]
    step = M[q] & before
    while step:
        v = step.bit_length() - 1
        cyc.append(v)
        before &= ~(1 << v)
        step = M[v] & before
    cyc = _strictify_cycle(P, pairs, cyc)
    return False, None, [pairs[i] for i in cyc]


def _is_strict_cycle(P: Poset, pairs, idxs) -> bool:
    k = len(idxs)
    for i in range(k):
        ai = pairs[idxs[i]][0]
        for j in range(k):
            want = (j == (i + 1) % k)
            if bool((P.up[ai] >> pairs[idxs[j]][1]) & 1) != want:
                return False
    return True


def strict_alternating_cycles(P: Poset, pairs: Sequence, max_size: int = 2):
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


# ---------------------------------------------------------------------------
# width: Dilworth via bipartite matching, with the self-certifying pair

@dataclass(frozen=True)
class WidthResult:
    width: int
    chains: tuple      # tuple of tuples of element indices (each a chain)
    antichain: tuple   # a maximum antichain, same size as len(chains)


def width(P: Poset, elements: Optional[Sequence[int]] = None) -> WidthResult:
    """Width of the (sub)poset: minimum chain cover and maximum antichain.

    Uses the classical reduction to bipartite matching; an augmenting-path
    matcher is plenty at this scale, and it searches on an explicit stack,
    so long paths never meet the recursion limit. Chains partition the
    elements, and the returned antichain certifies optimality by having
    equal size.
    """
    elems = list(range(P.n)) if elements is None else list(elements)
    k = len(elems)
    if k == 0:
        return WidthResult(0, (), ())
    # adj[i]: bitmask of the positions j with elems[i] < elems[j]
    position = {e: j for j, e in enumerate(elems)}
    adj = []
    for e in elems:
        row = 0
        for f in _bits(P.up[e] & ~(1 << e)):
            if f in position:
                row |= 1 << position[f]
        adj.append(row)
    match_right = [-1] * k   # right j -> left i
    match_left = [-1] * k

    size = 0
    for root in range(k):
        # depth-first search for an augmenting path on an explicit stack,
        # lowest unseen right vertex first: lefts is the path of left
        # vertices, rights the right vertex taken out of each but the last
        seen = 0
        lefts, rights = [root], []
        while lefts:
            free = adj[lefts[-1]] & ~seen
            if not free:
                lefts.pop()
                if rights:
                    rights.pop()
                continue
            j = (free & -free).bit_length() - 1
            seen |= 1 << j
            rights.append(j)
            i = match_right[j]
            if i == -1:
                for i, j in zip(lefts, rights):
                    match_right[j] = i
                    match_left[i] = j
                size += 1
                break
            lefts.append(i)
    # chains: follow matched successor links from unmatched-as-right elements
    starts = [j for j in range(k) if match_right[j] == -1]
    chains = []
    for s in starts:
        chain = [s]
        while match_left[chain[-1]] != -1:
            chain.append(match_left[chain[-1]])
        chains.append(tuple(elems[i] for i in chain))
    # Koenig: minimum vertex cover from alternating reachability off unmatched lefts
    free_left = [i for i in range(k) if match_left[i] == -1]
    seen_l = [False] * k
    seen_r = [False] * k
    stack = list(free_left)
    for i in stack:
        seen_l[i] = True
    while stack:
        i = stack.pop()
        for j in _bits(adj[i]):
            if not seen_r[j]:
                seen_r[j] = True
                i2 = match_right[j]
                if i2 != -1 and not seen_l[i2]:
                    seen_l[i2] = True
                    stack.append(i2)
    # cover = unreached lefts + reached rights; antichain = elements outside cover
    antichain = tuple(elems[i] for i in range(k) if seen_l[i] and not seen_r[i])
    w = k - size
    if len(antichain) != w or len(chains) != w:
        raise AssertionError("Dilworth certificate mismatch")
    return WidthResult(w, tuple(chains), antichain)


# ---------------------------------------------------------------------------
# linear extensions: enumeration, counting, and the downset lattice

def linear_extensions(P: Poset, limit: Optional[int] = None) -> Iterator[tuple]:
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


def downset_lattice(P: Poset, limit: int = 2_000_000):
    """All downsets (order ideals) as bitmasks, sorted by popcount then value.

    Raises TooManyExtensions when the lattice would exceed `limit` nodes.
    """
    n = P.n
    full = (1 << n) - 1
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for d in frontier:
            for x in range(n):
                b = 1 << x
                if not d & b and not (P.down[x] & ~(1 << x)) & ~d:
                    nd = d | b
                    if nd not in seen:
                        seen.add(nd)
                        if len(seen) > limit:
                            raise TooManyExtensions(
                                f"downset lattice exceeds {limit} nodes")
                        nxt.append(nd)
        frontier = nxt
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def count_linear_extensions(P: Poset, ideal_limit: int = 2_000_000) -> int:
    """Exact number of linear extensions via dynamic programming on downsets."""
    ideals = downset_lattice(P, ideal_limit)
    strict_up = [P.up[x] & ~(1 << x) for x in range(P.n)]
    cnt = {0: 1}
    for d in ideals[1:]:
        total = 0
        m = d
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            if not strict_up[x] & d:
                total += cnt[d ^ low]
        cnt[d] = total
    return cnt[ideals[-1]]


def max_weight_reversal(P: Poset, pairs: Sequence, weights: Sequence[Fraction],
                        ideals: Sequence[int]):
    """Extension maximizing the total weight of reversed pairs.

    Exact DP over the downset lattice; weight of an extension is the sum of
    weights[p] over pairs[p] = (a, b) placed with b before a. Returns
    (best_value, extension).
    """
    n = P.n
    strict_up = [P.up[x] & ~(1 << x) for x in range(n)]
    gains = [[] for _ in range(n)]   # gains[a] = [(weight, b bitmask)]
    for (a, b), w in zip(pairs, weights):
        if w:
            gains[a].append((w, 1 << b))
    zero = Fraction(0)
    best = {0: (zero, -1)}
    for d in ideals[1:]:
        bv = None
        bx = -1
        m = d
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            if strict_up[x] & d:
                continue
            prev = d ^ low
            v = best[prev][0]
            for w, bmask in gains[x]:
                if prev & bmask:
                    v = v + w
            if bv is None or v > bv:
                bv, bx = v, x
        best[d] = (bv, bx)
    ext = []
    d = ideals[-1]
    while d:
        _, x = best[d]
        ext.append(x)
        d ^= 1 << x
    ext.reverse()
    return best[ideals[-1]][0], tuple(ext)


# ---------------------------------------------------------------------------
# standard examples

def _se_compatibility(P: Poset, pairs):
    """Adjacency masks: pairs p, q can be two distinct legs of one standard
    example (a_p < b_q, a_q < b_p, tops and bottoms pairwise incomparable)."""
    t = len(pairs)
    rows = [0] * t
    for p in range(t):
        ap, bp = pairs[p]
        for q in range(p + 1, t):
            aq, bq = pairs[q]
            if len({ap, bp, aq, bq}) < 4:
                continue
            if ((P.up[ap] >> bq) & 1 and (P.up[aq] >> bp) & 1
                    and P.incomparable(ap, aq) and P.incomparable(bp, bq)):
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return rows


def _clique(rows: Sequence[int], k: int, size: Optional[int] = None):
    """Lowest-vertex-first branch and bound for cliques of a graph on 0..k-1.

    rows[v] is the adjacency bitmask of v. Returns the lexicographically
    first clique of maximum size, or, when `size` is given, the first clique
    with `size` vertices (None when there is none), as a sorted list.
    """
    pick = []
    best = []

    def grow(cand):
        nonlocal best
        if len(pick) > len(best):
            best = pick[:]
        if len(pick) == size:
            return True
        cs = list(_bits(cand))
        for i, q in enumerate(cs):
            if len(pick) + len(cs) - i <= len(best):
                return False
            pick.append(q)
            if grow(cand & rows[q] & ~((1 << (q + 1)) - 1)):
                return True
            pick.pop()
        return False

    if grow((1 << k) - 1):
        return pick
    return best if size is None else None


def find_standard_example(P: Poset, t: int):
    """Search for an induced standard example of size t among critical pairs.

    Returns (mins, maxs) element tuples for the lexicographically least
    embedding in critical-pair order, or None. Restricting the search to
    critical pairs loses nothing: a poset containing a standard example of
    size t contains one whose legs are critical pairs.
    """
    if t < 2:
        raise ParamRange("standard examples need t >= 2")
    pairs = critical_pairs(P)
    pick = _clique(_se_compatibility(P, pairs), len(pairs), t)
    if pick is None:
        return None
    mins = tuple(pairs[i][0] for i in pick)
    maxs = tuple(pairs[i][1] for i in pick)
    return mins, maxs


def standard_example_number(P: Poset) -> int:
    """Largest t >= 2 with a standard example of size t induced in P, else 1."""
    pairs = critical_pairs(P)
    best = len(_clique(_se_compatibility(P, pairs), len(pairs)))
    return best if best >= 2 else 1
