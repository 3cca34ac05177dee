"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete. Every tolerance is exact (integer or rational equality).

Criterion 6 pins fdim(pkn(1,5)) = 5/2, the proved optimum of the
fractional-dimension LP. The proof is test_fdim_p15_value_proof in
tests/test_dimensions.py: a dual witness of total weight 5/2 checked against
all 344,256 linear extensions, and a verified realizer of total weight 5/2.
"""

import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest

from ordim import (Realizer, analyze, binary_distinguishing, boolean_algebra,
                   boolean_dimension_exact, convex_dimension, critical_pairs,
                   distinguishing_to_realizer, dm_dimension, enumerate_geometries,
                   fractional_dimension, linear_geometry, max_down_degree, pkn,
                   pkn_fractional_certificate, poset_from_relation, qn_pn,
                   random_geometry, randomized_distinguishing,
                   realizer_to_distinguishing, standard_example_number,
                   validate_convex_geometry, vc_dimension_shattering,
                   verify_convex_realizer, verify_distinguishing,
                   verify_fractional_realizer, verify_realizer)
from ordim.geometry import SetFamily, check_boolean_property
from ordim.order import extend_reversing
from ordim.suite import UNIVERSAL_CHECKS, Instance, run_suite

from oracles import incomparable_pairs, linear_extensions
from posets import std_example


def verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return ok


def test_criterion_1_dim_p1n_formula():
    t0 = time.time()
    results = {}
    for n in range(3, 10):
        res = dm_dimension(pkn(1, n).poset)
        results[n] = res.dim
    want = {n: 1 + int(math.floor(math.log2(n))) for n in range(3, 10)}
    ok = results == want
    verdict(1, ok, f"dim(pkn(1,n)) n=3..9 = {list(results.values())} "
                   f"expected {list(want.values())} ({time.time() - t0:.1f}s)")
    assert ok
    assert time.time() - t0 < 120


def test_criterion_2_cdim_binomial_formula():
    t0 = time.time()
    bad = []
    for k in (1, 2, 3):
        for n in range(k + 2, 10):
            G = pkn(k, n)
            res = convex_dimension(G)
            if (res.cdim != math.comb(n - 1, k)
                    or not verify_convex_realizer(G, res.realizer.perms)):
                bad.append((k, n, res.cdim))
    ok = not bad
    verdict(2, ok, f"cdim(pkn(k,n)) = C(n-1,k) for k<=3, n<=9 "
                   f"({time.time() - t0:.1f}s)" + (f" bad={bad}" if bad else ""))
    assert ok
    assert time.time() - t0 < 10


def test_criterion_3_separation_family():
    t0 = time.time()
    bad = []
    nodes_p6 = None
    for n in range(3, 7):
        _, pg = qn_pn(n)
        budget = 10 ** 7
        res = dm_dimension(pg.poset, budget=budget)
        cres = convex_dimension(pg)
        if n == 6:
            nodes_p6 = res.nodes
        if res.dim != 3 or cres.cdim != n + 1:
            bad.append((n, res.dim, cres.cdim))
    ok = not bad and nodes_p6 is not None and nodes_p6 <= 10 ** 7
    verdict(3, ok, f"dim(pn)=3, cdim(pn)=n+1 for n=3..6; "
                   f"pn(6) search nodes={nodes_p6} <= 1e7 ({time.time() - t0:.1f}s)")
    assert ok


def test_criterion_4_vc_equals_maxdd():
    t0 = time.time()
    bad = []
    instances = []
    for n in range(1, 5):
        instances += [(f"enum{n}", G) for G in enumerate_geometries(n)]
    instances += [("pkn(1,6)", pkn(1, 6)), ("pkn(2,6)", pkn(2, 6)),
                  ("pkn(3,7)", pkn(3, 7)), ("pn(4)", qn_pn(4)[1]),
                  ("boolean(4)", boolean_algebra(4)),
                  ("linear(5)", linear_geometry((1, 2, 3, 4, 5)))]
    for name, G in instances:
        vc = vc_dimension_shattering(G.family)
        mdd = max_down_degree(G.poset)
        if vc != mdd:
            bad.append((name, vc, mdd))
    ok = not bad
    verdict(4, ok, f"vcdim == maxdd on {len(instances)} geometries "
                   f"({time.time() - t0:.1f}s)" + (f" bad={bad[:3]}" if bad else ""))
    assert ok
    assert time.time() - t0 < 60


def test_criterion_5_universal_theorem_suite():
    t0 = time.time()
    instances = []
    for n in range(1, 5):
        for i, G in enumerate(enumerate_geometries(n)):
            instances.append(Instance(f"enum{n}#{i}", G, "generic"))
    for i in range(200):
        instances.append(Instance(f"rng5#{i}",
                                  random_geometry(5, 2 + i % 3, 1000 + i),
                                  "generic"))
    rows = run_suite(instances, list(UNIVERSAL_CHECKS))
    failures = [r for r in rows if r.passed is False]
    ok = not failures
    verdict(5, ok, f"{len(instances)} geometries x {len(UNIVERSAL_CHECKS)} checks, "
                   f"{len(failures)} violations ({time.time() - t0:.1f}s)")
    assert ok
    assert time.time() - t0 < 300


def test_criterion_6_fractional_dimension():
    t0 = time.time()
    parts = []
    st_ok = all(fractional_dimension(std_example(t)).fdim == t for t in (2, 3))
    parts.append(f"fdim(S_t)=t for t=2,3: {'ok' if st_ok else 'FAIL'}")
    cert_ok = True
    for (k, n) in [(1, 4), (1, 5), (2, 5), (2, 6)]:
        G = pkn(k, n)
        cert = pkn_fractional_certificate(k, n, G=G)
        accept, total = verify_fractional_realizer(G.poset, cert)
        want = Fraction(2 ** (k + 1) * (2 ** n - 1), 2 ** n)
        cert_ok = cert_ok and accept and total == want
    parts.append(f"certificates (1,4),(1,5),(2,5),(2,6): {'ok' if cert_ok else 'FAIL'}")
    res = fractional_dimension(pkn(1, 5).poset)
    value_ok = res.fdim == Fraction(5, 2)
    parts.append(f"fdim(pkn(1,5)) = {res.fdim}, proved value 5/2: "
                 f"{'ok' if value_ok else 'FAIL'}")
    ok = st_ok and cert_ok and value_ok
    verdict(6, ok, "; ".join(parts) + f" ({time.time() - t0:.1f}s)")
    assert st_ok
    assert cert_ok
    assert time.time() - t0 < 120
    assert value_ok, (
        f"fdim(pkn(1,5)) computed as {res.fdim}, but the proved value is 5/2 "
        "(see test_fdim_p15_value_proof in tests/test_dimensions.py)")


def test_criterion_7_boolean_dimension():
    t0 = time.time()
    bd2, _ = boolean_dimension_exact(std_example(2))
    bd3, _ = boolean_dimension_exact(std_example(3))
    ok = bd2 == 2 and bd3 == 3
    verdict(7, ok, f"bdim(S_2)={bd2}, bdim(S_3)={bd3} ({time.time() - t0:.1f}s)")
    assert ok
    assert time.time() - t0 < 600


def test_criterion_8_certificate_roundtrips():
    t0 = time.time()
    bad = []
    combos = [(1, n) for n in range(3, 9)] + [(2, 6)]
    for k, n in combos:
        G = pkn(k, n)
        if k == 1:
            seq = binary_distinguishing(n)
            if seq.t != 1 + int(math.floor(math.log2(n))):
                bad.append((k, n, "binary size"))
        else:
            seq, _ = randomized_distinguishing(k, n, seed=2)
        R = distinguishing_to_realizer(k, n, seq, G=G)
        if len(R.extensions) != seq.t or not verify_realizer(G.poset, R):
            bad.append((k, n, "to_realizer"))
        back = realizer_to_distinguishing(k, n, R, G=G)
        if back.t != seq.t or not verify_distinguishing(k, n, back)[0]:
            bad.append((k, n, "roundtrip"))
    ok = not bad
    verdict(8, ok, f"conversions preserve size and verify on {combos} "
                   f"({time.time() - t0:.1f}s)" + (f" bad={bad}" if bad else ""))
    assert ok
    assert time.time() - t0 < 30


def test_criterion_9_randomized_builder():
    t0 = time.time()
    bad = []
    for (k, n) in [(1, 8), (2, 8), (1, 16), (2, 16), (1, 32), (2, 32)]:
        G = pkn(k, n)
        for seed in range(20):
            try:
                seq, tries = randomized_distinguishing(k, n, seed=seed)
            except Exception as exc:
                bad.append((k, n, seed, repr(exc)))
                continue
            R = distinguishing_to_realizer(k, n, seq, G=G)
            if not verify_realizer(G.poset, R):
                bad.append((k, n, seed, "realizer"))
    ok = not bad
    verdict(9, ok, f"randomized builder: 6 combos x 20 seeds, all successes "
                   f"converted to verified realizers ({time.time() - t0:.1f}s)"
                   + (f" bad={bad[:3]}" if bad else ""))
    assert ok


def test_criterion_10_oracle_equivalence():
    t0 = time.time()
    # enumeration against the brute-force axiom filter
    mism = 0
    for n in (1, 2, 3):
        enum = sorted(tuple(G.masks) for G in enumerate_geometries(n))
        full = (1 << n) - 1
        middles = [m for m in range(1 << n) if m not in (0, full)]
        brute = []
        for picks in product((0, 1), repeat=len(middles)):
            fam = {0, full} | {m for m, p in zip(middles, picks) if p}
            if not all((a & b) in fam for a in fam for b in fam):
                continue
            if not all(a == full or any(not (a >> e) & 1 and (a | (1 << e)) in fam
                                        for e in range(n)) for a in fam):
                continue
            brute.append(tuple(sorted(fam, key=lambda m: (bin(m).count("1"), m))))
        if enum != sorted(brute):
            mism += 1
    # extend_reversing, the reversibility test every solver runs, against
    # brute-force extension search
    rng = random.Random(99)
    checked = 0
    disagreements = 0
    while checked < 500:
        n = rng.randint(4, 8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        P = poset_from_relation(n, pairs)
        inc = incomparable_pairs(P)
        if not inc:
            continue
        S = rng.sample(inc, min(len(inc), rng.randint(1, 6)))
        ok_fast = extend_reversing(P, S) is not None
        ok_brute = False
        for e in linear_extensions(P):
            pos = {x: i for i, x in enumerate(e)}
            if all(pos[a] > pos[b] for a, b in S):
                ok_brute = True
                break
        if ok_fast != ok_brute:
            disagreements += 1
        checked += 1
    ok = mism == 0 and disagreements == 0
    verdict(10, ok, f"enumeration oracle n<=3 mismatches={mism}; "
                    f"reversibility disagreements={disagreements}/500 "
                    f"({time.time() - t0:.1f}s)")
    assert ok
    assert time.time() - t0 < 300
