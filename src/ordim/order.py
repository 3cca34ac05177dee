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

from .errors import CycleError, ParamRange, TooManyExtensions


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
    reflexive, antisymmetric and transitive. cover_succ[x] lists the upper
    covers of x (the y > x with nothing strictly between) in increasing
    order; every builder derives them in the same pass as the rows, and
    every other cover form is read from them.
    """

    n: int
    up: tuple
    down: tuple
    cover_succ: tuple
    labels: Optional[tuple] = None

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and bool((self.up[x] >> y) & 1)

    def incomparable(self, x: int, y: int) -> bool:
        return x != y and not self.leq(x, y) and not self.leq(y, x)

    @cached_property
    def covers(self) -> tuple:
        """Every cover pair (x, y) in increasing (x, y) order."""
        return tuple((x, y) for x, above in enumerate(self.cover_succ)
                     for y in above)

    @cached_property
    def cover_pred(self) -> tuple:
        """cover_pred[y] lists the lower covers of y in increasing order."""
        adj = [[] for _ in range(self.n)]
        for x, above in enumerate(self.cover_succ):
            for y in above:
                adj[y].append(x)
        return tuple(map(tuple, adj))

    @cached_property
    def cover_indeg(self) -> tuple:
        """cover_indeg[y] counts the lower covers of y."""
        return tuple(map(len, self.cover_pred))

    @cached_property
    def pair_data(self) -> tuple:
        """(pairs, arcs, mutual, legs): `critical_pairs` and their
        `pair_relations`, as tuples, computed once for dim, se and fdim."""
        pairs = tuple(critical_pairs(self))
        return (pairs, *map(tuple, pair_relations(self, pairs)))


def _topological(succ: Sequence, indeg: list) -> list:
    """Kahn's algorithm (Kahn 1962), smallest index first for determinism.

    succ[x] lists the heads of the arcs out of x, indeg[y] counts the arcs
    into y and is used up; a repeated arc counts and is walked once per
    copy. Returns the order, which misses some element exactly when the
    arcs hold a cycle: the missed ones keep a positive in-degree.
    """
    heap = [x for x, d in enumerate(indeg) if d == 0]
    heapq.heapify(heap)
    out = []
    while heap:
        x = heapq.heappop(heap)
        out.append(x)
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                heapq.heappush(heap, y)
    return out


def _rows(order: Sequence, succ: Sequence) -> tuple:
    """(up, down) rows closing the arcs x -> succ[x] along `order`, which
    lists every element, each arc's tail before its head."""
    up = [1 << x for x in range(len(succ))]
    down = list(up)
    for x in reversed(order):
        row = up[x]
        for y in succ[x]:
            row |= up[y]
        up[x] = row
    for x in order:
        for y in succ[x]:
            down[y] |= down[x]
    return up, down


def poset_from_relation(n: int, pairs: Iterable, labels=None) -> Poset:
    """Reflexive-transitive closure of the pairs (x, y) meaning x <= y.

    One topological pass over the listed arcs (self-pairs skipped), closed
    by `_rows` along that order; the covers of x are up[x] - x less the
    strict filters of its successors. Raises CycleError on a directed cycle
    of listed pairs, rotated to start at its least element.
    """
    if n < 0:
        raise ParamRange("n must be nonnegative")
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ParamRange(f"pair ({x},{y}) out of range for n={n}")
        if x != y:
            succ[x].append(y)
            indeg[y] += 1
    order = _topological(succ, indeg)
    if len(order) != n:
        # every element left out has a listed predecessor left out too: walk
        # back from the least one, to the least such predecessor each time,
        # until an element repeats
        left = [x for x in range(n) if indeg[x]]
        pred = {x: [] for x in left}
        for x in left:
            for y in succ[x]:
                pred[y].append(x)
        walk, at, x = [], {}, left[0]
        while x not in at:
            at[x] = len(walk)
            walk.append(x)
            x = min(pred[x])
        cycle = walk[at[x]:][::-1]
        k = cycle.index(min(cycle))
        raise CycleError(cycle[k:] + cycle[:k])
    up, down = _rows(order, succ)
    cover_succ = []
    for x in range(n):
        shadow = 0
        for y in succ[x]:
            shadow |= up[y] & ~(1 << y)
        cover_succ.append(tuple(_bits(up[x] & ~shadow & ~(1 << x))))
    return Poset(n, tuple(up), tuple(down), tuple(cover_succ),
                 tuple(labels) if labels else None)


# ---------------------------------------------------------------------------
# degrees and distinguished pairs


def max_down_degree(P: Poset) -> int:
    return max(P.cover_indeg, default=0)


def critical_pairs(P: Poset):
    """Ordered pairs (a, b), incomparable, with every x < a also < b and
    every y > b also > a, in increasing (a, b) order.

    Every x < a lies below a lower cover of a, so the first condition holds
    iff b is in above[a], the elements above all lower covers of a; dually
    the second iff a is in below[b]. One pass over the covers builds both.
    """
    full = (1 << P.n) - 1
    above = [full] * P.n
    below = [full] * P.n
    for x, ys in enumerate(P.cover_succ):
        for y in ys:
            above[y] &= P.up[x]
            below[x] &= P.down[y]
    out = []
    for a in range(P.n):
        for b in _bits(above[a] & ~(P.up[a] | P.down[a])):
            if (below[b] >> a) & 1:
                out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# reversibility of incomparable-pair sets

def pair_relations(P: Poset, pairs: Sequence):
    """Rows (arcs, mutual, legs) over pair indices, one bitmask per pair.

    arcs[p] holds q iff q != p and a_p <= b_q: the pair digraph. mutual[p]
    holds q iff the arcs run both ways, so no extension reverses both.
    legs[p] is mutual[p] less the pairs sharing an element with p. For
    incomparable pairs that is exactly the q making p, q two legs of an
    induced standard example (a_p < b_q, a_q < b_p, a_p || a_q, b_p || b_q),
    as mutual arcs force both incomparabilities (Trotter 1992):
      a_p <= a_q gives a_p <= a_q <= b_p,
      a_q <= a_p gives a_q <= a_p <= b_q,
      b_p <= b_q gives a_q <= b_p <= b_q,
      b_q <= b_p gives a_p <= b_q <= b_p,
    each against a_p || b_p or a_q || b_q.

    Row p depends on a_p and b_p alone, so the pairs are grouped by each
    coordinate and every distinct a is compared with every distinct b once.
    """
    bya, byb = {}, {}          # bya[a]: the q with a_q = a; byb likewise
    for q, (a, b) in enumerate(pairs):
        bya[a] = bya.get(a, 0) | 1 << q
        byb[b] = byb.get(b, 0) | 1 << q
    above = dict.fromkeys(bya, 0)      # above[a]: the q with a <= b_q
    below = dict.fromkeys(byb, 0)      # below[b]: the q with a_q <= b
    for a, qa in bya.items():
        for b, qb in byb.items():
            if (P.up[a] >> b) & 1:
                above[a] |= qb
                below[b] |= qa
    arcs, mutual, legs = [], [], []
    for p, (a, b) in enumerate(pairs):
        arcs.append(above[a] & ~(1 << p))
        mutual.append(arcs[p] & below[b])
        shared = bya[a] | bya.get(b, 0) | byb.get(a, 0) | byb[b]
        legs.append(mutual[p] & ~shared)
    return arcs, mutual, legs


def pair_digraph(P: Poset, pairs: Sequence) -> list:
    """The arcs of `pair_relations`: p -> q iff a_p <= b_q (p != q). A pair
    set is reversible iff its induced subgraph is acyclic."""
    return pair_relations(P, pairs)[0]


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


def _heaviest_reversible(M, mutual, weights: Sequence[int],
                         limit: Optional[int] = None):
    """Heaviest reversible pair set: a maximum-weight vertex set of the pair
    digraph M whose induced subgraph is acyclic.

    weights are non-negative integers and mutual the mutual-arc rows of M.
    Branch and bound on an explicit stack: the positive-weight pairs are
    decided heaviest first (lowest index among ties), each included before
    it is excluded and included only while it closes no cycle. A node
    carries `blocked`, the union of the mutual rows of its members: a
    blocked pair would close a 2-cycle, so it is excluded with no cycle
    search, and its weight is taken off the node's bound. A node is pruned
    when its weight plus the undecided weight outside `blocked` cannot beat
    the best set so far. Returns (value, members, nodes) with members the
    first heaviest set in that order and nodes the number of nodes
    expanded. A search that would expand more than `limit` nodes stops with
    members None and value the largest bound over its open nodes, an upper
    bound on the optimum.
    """
    order = sorted((p for p, w in enumerate(weights) if w > 0),
                   key=lambda p: (-weights[p], p))
    k = len(order)
    rest = [0] * (k + 1)        # rest[i]: the weight of order[i:]
    ahead = [0] * (k + 1)       # ahead[i]: the pairs order[i:]
    for i in range(k - 1, -1, -1):
        rest[i] = rest[i + 1] + weights[order[i]]
        ahead[i] = ahead[i + 1] | 1 << order[i]
    best, best_set, nodes = 0, 0, 0
    # (pairs decided, members, weight, blocked, undecided weight in blocked)
    stack = [(0, 0, 0, 0, 0)]
    while stack:
        i, members, w, blocked, lost = stack.pop()
        if w + rest[i] - lost <= best:
            continue
        if limit is not None and nodes >= limit:
            # every set not yet seen lies below this node or one on the stack
            bound = max(w2 + rest[i2] - lost2 for i2, _, w2, _, lost2
                        in stack + [(i, members, w, blocked, lost)])
            return bound, None, nodes
        nodes += 1
        if w > best:
            best, best_set = w, members
        while i < k and (blocked >> order[i]) & 1:
            lost -= weights[order[i]]
            i += 1
        if i == k:
            continue
        p = order[i]
        stack.append((i + 1, members, w, blocked, lost))
        if not _adds_cycle(M, members, p):
            fresh = mutual[p] & ahead[i + 1] & ~blocked
            stack.append((i + 1, members | 1 << p, w + weights[p],
                          blocked | mutual[p],
                          lost + sum(weights[q] for q in _bits(fresh))))
    return best, best_set, nodes


def extend_reversing(P: Poset, pairs: Sequence):
    """Linear extension of P placing b before a for every pair (a, b), or None.

    `_topological` over the cover arcs plus the reversal arcs b -> a.
    """
    succ = list(P.cover_succ)
    indeg = list(P.cover_indeg)
    extra = {}
    for a, b in pairs:
        extra.setdefault(b, []).append(a)
        indeg[a] += 1
    for b, more in extra.items():
        succ[b] += tuple(more)
    out = _topological(succ, indeg)
    return tuple(out) if len(out) == P.n else None


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
    if not elems:
        return WidthResult(0, (), ())
    # adj[e]: the mask of the chosen elements above e
    sel = sum(1 << e for e in elems)
    adj = {e: P.up[e] & sel & ~(1 << e) for e in elems}
    match_right = [-1] * P.n   # right j -> left i
    match_left = [-1] * P.n

    size = 0
    for root in elems:
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
    chains = []
    for s in elems:
        if match_right[s] == -1:
            chain = [s]
            while match_left[chain[-1]] != -1:
                chain.append(match_left[chain[-1]])
            chains.append(tuple(chain))
    # Koenig: minimum vertex cover from alternating reachability off unmatched lefts
    stack = [i for i in elems if match_left[i] == -1]
    seen_l, seen_r = sum(1 << i for i in stack), 0
    while stack:
        for j in _bits(adj[stack.pop()] & ~seen_r):
            seen_r |= 1 << j
            i2 = match_right[j]
            if i2 != -1 and not seen_l >> i2 & 1:
                seen_l |= 1 << i2
                stack.append(i2)
    # cover = unreached lefts + reached rights; antichain = elements outside cover
    antichain = tuple(e for e in elems if (seen_l & ~seen_r) >> e & 1)
    w = len(elems) - size
    if len(antichain) != w or len(chains) != w:
        raise AssertionError("Dilworth certificate mismatch")
    return WidthResult(w, tuple(chains), antichain)


# ---------------------------------------------------------------------------
# the downset lattice and heaviest reversals over it

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

def _clique(rows: Sequence[int], k: int, size: Optional[int] = None):
    """Lowest-vertex-first branch and bound for cliques of a graph on 0..k-1,
    on an explicit stack, so a clique may be deeper than the recursion limit.

    rows[v] is the adjacency bitmask of v. Returns the lexicographically
    first clique of maximum size, or, when `size` is given, the first clique
    with `size` vertices (None when there is none), as a sorted list.
    """
    pick, best = [], []
    # one frame per open level, the mask of its candidates not tried yet;
    # the vertices taken so far are pick, one fewer than the frames
    stack = [(1 << k) - 1]
    while True:
        if len(pick) > len(best):
            best = pick[:]
        if len(pick) == size:
            return pick
        while stack and len(pick) + stack[-1].bit_count() <= len(best):
            stack.pop()
            if pick:
                pick.pop()
        if not stack:
            return best if size is None else None
        # take the lowest candidate q; every bit at or below q has left the
        # frame, so the child's candidates are its neighbours still in it
        frame = stack[-1]
        q = (frame & -frame).bit_length() - 1
        frame ^= 1 << q
        stack[-1] = frame
        pick.append(q)
        stack.append(rows[q] & frame)


def find_standard_example(P: Poset, t: int):
    """Search for an induced standard example of size t among critical pairs.

    Returns (mins, maxs) element tuples for the lexicographically least
    embedding in critical-pair order, or None. Restricting the search to
    critical pairs loses nothing: a poset containing a standard example of
    size t contains one whose legs are critical pairs.
    """
    if t < 2:
        raise ParamRange("standard examples need t >= 2")
    pairs, _, _, legs = P.pair_data
    pick = _clique(legs, len(pairs), t)
    if pick is None:
        return None
    mins = tuple(pairs[i][0] for i in pick)
    maxs = tuple(pairs[i][1] for i in pick)
    return mins, maxs


def standard_example_number(P: Poset) -> int:
    """Largest t >= 2 with a standard example of size t induced in P, else 1."""
    pairs, _, _, legs = P.pair_data
    best = len(_clique(legs, len(pairs)))
    return best if best >= 2 else 1
