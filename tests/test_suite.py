"""Theorem suite engine: populations, checks, reporting."""

from ordim import boolean_algebra
from ordim.suite import (Instance, parse_named, parse_population,
                         rows_to_json, rows_to_table, run_suite,
                         UNIVERSAL_CHECKS)


def test_enumerate_population_all_pass():
    instances = list(parse_population("enumerate:3"))
    assert len(instances) == 1 + 3 + 22
    rows = run_suite(instances, list(UNIVERSAL_CHECKS))
    assert all(r.passed is not False for r in rows)


def test_enumerate_population_is_lazy():
    # the first instance comes before any 5-point geometry is enumerated
    first = next(iter(parse_population("enumerate:5")))
    assert first.name == "enum1#0" and first.geometry.masks == (0, 1)


def test_random_population_all_pass():
    instances = list(parse_population("random:5,3,25,100"))
    assert len(instances) == 25
    rows = run_suite(instances, list(UNIVERSAL_CHECKS))
    assert all(r.passed is not False for r in rows)


def test_named_instances_checks():
    rows = run_suite(parse_named("pkn=1,5;pn=3"), ["T1.1", "T1.5", "Prop8.x"])
    failures = [r for r in rows if r.passed is False]
    assert not failures
    checks = {r.check for r in rows}
    assert "T1.1" in checks and "T1.5:6" in checks and "Prop8.x:jkn" in checks
    # asymptotic statements are reported as skipped rows, not pass/fail
    skips = [r for r in rows if r.passed is None]
    assert {r.check for r in skips} == {"T1.5:3", "T1.5:4"}


def test_down_degree_row_fails_off_profile():
    # Boolean algebras have down degree |A|, not min(|A|, k+1)
    rows = run_suite([Instance("b4", boolean_algebra(4), "pkn", (1, 4))],
                     ["Prop8.x"])
    dd = [r for r in rows if r.check == "Prop8.x:dd"]
    assert len(dd) == 1 and dd[0].passed is False


def test_table_and_json_rendering():
    rows = run_suite(parse_named("linear=3"), ["Thm3.1", "Prop3.8"])
    table = rows_to_table(rows)
    assert "pass" in table and "linear(3)" in table
    doc = rows_to_json(rows)
    assert doc["failures"] == 0
    assert len(doc["rows"]) == len(rows)
