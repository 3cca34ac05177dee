"""Small posets shared by the test modules."""

from ordim import poset_from_relation


def std_example(t):
    """S_t: minimal a_0..a_{t-1}, maximal b via a_i < b_j iff i != j."""
    pairs = [(i, t + j) for i in range(t) for j in range(t) if i != j]
    return poset_from_relation(2 * t, pairs)


def chain(n):
    return poset_from_relation(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n):
    return poset_from_relation(n, [])


def random_poset(rng, n):
    """Relate each i < j with probability 0.3, drawing row by row."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3]
    return poset_from_relation(n, pairs)
