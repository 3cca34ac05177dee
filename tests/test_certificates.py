"""Certificate verifiers checked straight against the definitions."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from ordim import (BooleanRealizer, FractionalRealizer, LocalRealizer,
                   MalformedCertificate, Realizer, linear_extensions,
                   poset_from_relation, verify_boolean_realizer,
                   verify_fractional_realizer, verify_local_realizer,
                   verify_realizer)
from ordim.certificates import is_linear_extension


def std_example(t):
    pairs = [(i, t + j) for i in range(t) for j in range(t) if i != j]
    return poset_from_relation(2 * t, pairs)


def s2_realizer():
    # reverses (a_0,b_0) in the first extension and (a_1,b_1) in the second
    return Realizer(((1, 2, 0, 3), (0, 3, 1, 2)))


def test_realizer_accepts_and_rejects():
    P = std_example(2)
    assert verify_realizer(P, s2_realizer())
    # dropping an extension leaves an incomparable pair uncovered
    assert not verify_realizer(P, Realizer(((1, 2, 0, 3),)))


def test_realizer_rejects_non_extension():
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    assert not verify_realizer(P, Realizer(((2, 1, 0), (0, 1, 2))))


def test_realizer_malformed():
    P = std_example(2)
    with pytest.raises(MalformedCertificate):
        verify_realizer(P, Realizer(((0, 1, 2),)))


def test_realizer_as_boolean_realizer():
    # any realizer becomes a Boolean realizer with the all-ones string
    P = std_example(2)
    R = s2_realizer()
    BR = BooleanRealizer(R.extensions, frozenset({"11"}))
    assert verify_boolean_realizer(P, BR)


def test_boolean_realizer_chain_single_order():
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    BR = BooleanRealizer(((0, 1, 2),), frozenset({"1"}))
    assert verify_boolean_realizer(P, BR)


def test_boolean_realizer_rejects_wrong_tau():
    P = std_example(2)
    BR = BooleanRealizer(s2_realizer().extensions, frozenset({"10"}))
    assert not verify_boolean_realizer(P, BR)


def test_boolean_realizer_malformed_tau():
    P = std_example(2)
    with pytest.raises(MalformedCertificate):
        verify_boolean_realizer(
            P, BooleanRealizer(s2_realizer().extensions, frozenset({"1"})))


def test_local_realizer_full_extensions():
    P = std_example(2)
    LR = LocalRealizer(s2_realizer().extensions)
    ok, r = verify_local_realizer(P, LR)
    assert ok and r == 2


def test_local_realizer_partial():
    # chain 0<1<2 with isolated 3: one full extension plus one short ple
    P = poset_from_relation(4, [(0, 1), (1, 2)])
    LR = LocalRealizer(((0, 1, 2, 3), (3, 0), (3, 1), (3, 2)))
    ok, r = verify_local_realizer(P, LR)
    assert ok and r == 4     # element 3 appears four times
    # dropping the (3,2) ple leaves the pair (2,3) unreversed
    ok, _ = verify_local_realizer(P, LocalRealizer(((0, 1, 2, 3), (3, 0), (3, 1))))
    assert not ok


def test_local_realizer_rejects_order_violation():
    P = poset_from_relation(3, [(0, 1), (1, 2)])
    ok, _ = verify_local_realizer(P, LocalRealizer(((1, 0), (0, 1, 2))))
    assert not ok


def test_fractional_realizer_antichain():
    P = poset_from_relation(2, [])
    one = Fraction(1)
    FR = FractionalRealizer((((0, 1), one), ((1, 0), one)))
    ok, total = verify_fractional_realizer(P, FR)
    assert ok and total == 2
    half = Fraction(1, 2)
    FR = FractionalRealizer((((0, 1), half), ((1, 0), half)))
    ok, total = verify_fractional_realizer(P, FR)
    assert not ok and total == 1


def test_fractional_realizer_malformed_weight():
    P = poset_from_relation(2, [])
    with pytest.raises(MalformedCertificate):
        verify_fractional_realizer(
            P, FractionalRealizer((((0, 1), Fraction(-1)),)))


def test_fractional_realizer_fractional_optimum():
    # S_2 with weights 1/2 on enough extensions is infeasible; weight 1 works
    P = std_example(2)
    exts = s2_realizer().extensions
    FR = FractionalRealizer(tuple((e, Fraction(1)) for e in exts))
    ok, total = verify_fractional_realizer(P, FR)
    assert ok and total == 2


def extension_by_definition(P, seq):
    """Every pair x < y of P appears in seq with x first."""
    pos = {x: i for i, x in enumerate(seq)}
    return all(pos[x] < pos[y] for x in range(P.n) for y in range(P.n)
               if P.lt(x, y))


def test_is_linear_extension_matches_all_pairs_definition():
    rng = random.Random(71)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(1, 8)
        perm = list(range(n))
        rng.shuffle(perm)
        P = poset_from_relation(n, [(perm[i], perm[j]) for i in range(n)
                                    for j in range(i + 1, n)
                                    if rng.random() < 0.3])
        seqs = [rng.sample(range(n), n) for _ in range(5)]
        seqs += [list(ext) for ext in islice(linear_extensions(P), 5)]
        for seq in seqs:
            want = extension_by_definition(P, seq)
            assert is_linear_extension(P, seq) == want, (P, seq)
            verdicts.add(want)
        for bad in (seqs[0][:-1], seqs[0] + [0], [n] + seqs[0][1:],
                    [seqs[0][0]] * n if n > 1 else [1]):
            with pytest.raises(MalformedCertificate):
                is_linear_extension(P, bad)
    assert verdicts == {True, False}
