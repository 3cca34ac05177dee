"""Seeded benchmark inputs, built without calling the program under test.

Every family is produced here from its defining rule and handed to ordim
only as ``ordim/setfamily/1`` JSON text, so the time ordim spends building
families never lands in a timed operation.
"""

from __future__ import annotations

import json
import random
from itertools import combinations


def pkn_masks(k: int, n: int) -> list:
    """pkn(k, n): sets of size s <= k are free; a larger set must contain the
    prefix {1..s-k}."""
    masks = []
    for s in range(n + 1):
        prefix_len = max(0, s - k)
        prefix = (1 << prefix_len) - 1
        for rest in combinations(range(prefix_len, n), s - prefix_len):
            masks.append(prefix | sum(1 << e for e in rest))
    return masks


def pn_masks(n: int) -> list:
    """pn(n) on a 2-block plus two n-blocks: staircases [i]|[j]|[k] with
    i == 2 or j + k <= n."""
    masks = []
    for i in range(3):
        for j in range(n + 1):
            for k in range(n + 1):
                if i == 2 or j + k <= n:
                    masks.append(((1 << i) - 1) | (((1 << j) - 1) << 2)
                                 | (((1 << k) - 1) << (2 + n)))
    return masks


def random_join_masks(n: int, t: int, rng: random.Random) -> list:
    """Join of t random linear geometries on n elements: all intersections
    of one initial segment from each of t random orders."""
    family = {(1 << n) - 1}
    for _ in range(t):
        order = list(range(n))
        rng.shuffle(order)
        segments = [0]
        for e in order:
            segments.append(segments[-1] | (1 << e))
        family = {a & b for a in family for b in segments}
    return sorted(family)


def relabel(masks: list, perm: list) -> list:
    """Apply the ground permutation e -> perm[e] (0-based) to every set."""
    out = []
    for m in masks:
        r = 0
        e = 0
        while m:
            if m & 1:
                r |= 1 << perm[e]
            m >>= 1
            e += 1
        out.append(r)
    return out


def family_text(ground: int, masks: list) -> str:
    """Serialise a family as set-family JSON, sets in canonical order."""
    ordered = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    sets = [[e + 1 for e in range(ground) if (m >> e) & 1] for m in ordered]
    return json.dumps({"schema": "ordim/setfamily/1", "ground": ground,
                       "sets": sets})
