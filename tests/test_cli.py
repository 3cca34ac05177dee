"""CLI surface: subcommands, exit codes, artifact round trips, determinism."""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordim.cli import main
from ordim import (binary_distinguishing, dm_dimension, pkn, serialize, suite,
                   verify_fractional_realizer)


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_gen_pkn_compute_roundtrip(tmp_path):
    fam = tmp_path / "p15.json"
    rep = tmp_path / "report.json"
    assert run(["gen", "pkn", "--k", "1", "--n", "5", "--out", str(fam)]) == 0
    doc = read_json(fam)
    assert len(doc["sets"]) == 16
    assert run(["compute", str(fam), "--only", "dim,cdim,maxdd,se",
                "--out", str(rep)]) == 0
    params = read_json(rep)["params"]
    assert params == {"dim": 3, "cdim": 4, "maxdd": 2, "se": 2}


def test_gen_boolean_and_pn(tmp_path):
    out = tmp_path / "b3.json"
    assert run(["gen", "boolean", "--n", "3", "--out", str(out)]) == 0
    assert len(read_json(out)["sets"]) == 8
    out = tmp_path / "pn3.json"
    assert run(["gen", "pn", "--n", "3", "--out", str(out)]) == 0
    rep = tmp_path / "pn3rep.json"
    assert run(["compute", str(out), "--only", "dim,cdim", "--out", str(rep)]) == 0
    assert read_json(rep)["params"] == {"dim": 3, "cdim": 4}


@pytest.mark.parametrize("name", sorted(suite.NAMED_FAMILIES))
def test_gen_and_named_read_one_table(tmp_path, name):
    vals = {"k": 1, "n": 5}
    params = suite.NAMED_FAMILIES[name].params
    out = tmp_path / f"{name}.json"
    argv = ["gen", name, "--out", str(out)]
    for p in params:
        argv += [f"--{p}", str(vals[p])]
    assert run(argv) == 0
    spec = f"{name}={','.join(str(vals[p]) for p in params)}"
    (inst,) = suite.parse_named(spec)
    assert inst.name == f"{name}({','.join(str(vals[p]) for p in params)})"
    assert read_json(out) == serialize.family_to_json(inst.geometry.family)


def test_theorems_enumerate_beyond_5_refused_at_once(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(suite, "enumerate_geometries",
                        lambda n: calls.append(n) or iter(()))
    assert run(["theorems", "--population", "enumerate:6"]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert run(["gen", "enumerate", "--n", "6"]) == 2
    assert err == capsys.readouterr().err == (
        "error: enumeration supports 1 <= n <= 5\n")


def test_compute_only_cdim_chain(tmp_path):
    fam = tmp_path / "chain.json"
    assert run(["gen", "linear", "--n", "4", "--out", str(fam)]) == 0
    rep = tmp_path / "rep.json"
    assert run(["compute", str(fam), "--only", "cdim", "--out", str(rep)]) == 0
    assert read_json(rep)["params"] == {"cdim": 1}


def test_axiom_violation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "ordim/setfamily/1", "ground": 2,
                               "sets": [[], [1, 2]]}))
    assert run(["compute", str(bad)]) == 3


def test_malformed_input_exit_code(tmp_path):
    bad = tmp_path / "nope.json"
    bad.write_text("{\"schema\": \"other/thing/1\"}")
    assert run(["compute", str(bad)]) == 2


P14 = {"schema": "ordim/setfamily/1", "ground": 2, "sets": [[], [1], [1, 2]]}
REALIZER = '{"schema": "ordim/certificate/realizer/1", "extensions": [%s]}'
FRACTIONAL = ('{"schema": "ordim/certificate/fractional/1", '
              '"weighted": [{"extension": %s, "weight": %s}]}')
ANTICHAIN2 = {"schema": "ordim/poset/1", "n": 2, "relation": []}
# weights 0.7 + 0.3 on [0, 1] plus 1 on [1, 0] cover the antichain exactly
ANTICHAIN2_WEIGHTS = ('{"schema": "ordim/certificate/fractional/1", "weighted": ['
                      '{"extension": [0, 1], "weight": %s}, '
                      '{"extension": [0, 1], "weight": %s}, '
                      '{"extension": [1, 0], "weight": %s}]}')
CHAIN2 = {"schema": "ordim/poset/1", "n": 2, "relation": [[0, 1]]}
CHAIN2_BOOLEAN = {"schema": "ordim/certificate/boolean/1", "orders": [[0, 1]],
                  "tau": ["1"]}
P15 = serialize.family_to_json(pkn(1, 5).family)
# binary_distinguishing(5): t = 3, sets [[1, 2, 3], [2, 3], [1, 3], [1, 2], [3]]
DIST = serialize.certificate_to_json(binary_distinguishing(5))
# deeper than any recursion limit the JSON parser runs under
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("doc, cert, argv", [
    ([P14], None, ["compute"]),
    (P14, {"schema": "ordim/certificate/realizer/1"},
     ["verify", "--kind", "realizer"]),
    (P14, FRACTIONAL % ("[0, 1, 2]", '"abc"'), ["verify", "--kind", "fractional"]),
    ({"schema": "ordim/setfamily/1", "ground": 2}, None, ["compute"]),
    (P14, FRACTIONAL % ("[0, 1, 2]", "Infinity"), ["verify", "--kind", "fractional"]),
    (P14, FRACTIONAL % ("[0, 1, 2]", "1e400"), ["verify", "--kind", "fractional"]),
    (P14, FRACTIONAL % ("[0, 1, 2]", '"1/0"'), ["verify", "--kind", "fractional"]),
    (P14, REALIZER % "[0.0, 1, 2]", ["verify", "--kind", "realizer"]),
    (P14, REALIZER % "[true, 0, 2]", ["verify", "--kind", "realizer"]),
    (P14, FRACTIONAL % ("[0.0, 1, 2]", '"1"'), ["verify", "--kind", "fractional"]),
    (ANTICHAIN2, ANTICHAIN2_WEIGHTS % ("0.7", "0.3", "1"),
     ["verify", "--kind", "fractional"]),
    (ANTICHAIN2, ANTICHAIN2_WEIGHTS % ('"7/10"', '"3/10"', "true"),
     ["verify", "--kind", "fractional"]),
    (ANTICHAIN2, {"schema": "ordim/certificate/boolean/1", "orders": [[0, 1]],
                  "tau": [1]}, ["verify", "--kind", "boolean"]),
    # on the 2-chain, frozenset() would read each of these as {"1"} and accept
    (CHAIN2, dict(CHAIN2_BOOLEAN, tau="11"), ["verify", "--kind", "boolean"]),
    (CHAIN2, dict(CHAIN2_BOOLEAN, tau={"1": 0}), ["verify", "--kind", "boolean"]),
    (CHAIN2, dict(CHAIN2_BOOLEAN, tau=["1", "1"]), ["verify", "--kind", "boolean"]),
    (P15, dict(DIST, t=1), ["verify", "--kind", "distinguishing"]),
    (P15, dict(DIST, sets=[[0, 1, 2, 3]] + DIST["sets"][1:]),
     ["verify", "--kind", "distinguishing"]),
    (P15, dict(DIST, sets=[[True, 2, 3]] + DIST["sets"][1:]),
     ["verify", "--kind", "distinguishing"]),
    (P15, dict(DIST, sets=[[1, 1, 2, 3]] + DIST["sets"][1:]),
     ["verify", "--kind", "distinguishing"]),
    (P15, dict(DIST, t=-1, sets=[[]] * 5), ["verify", "--kind", "distinguishing"]),
    (P15, dict(DIST, k=True), ["verify", "--kind", "distinguishing"]),
    (dict(P14, ground=True, sets=[[], [1]]), None, ["compute"]),
    (dict(P14, ground=2.9), None, ["compute"]),
    (dict(ANTICHAIN2, n=2.5), None, ["compute"]),
    (dict(ANTICHAIN2, n=3, relation=[[True, 2]]), None, ["compute"]),
    (dict(P14, ground=1, sets=[[], [True]]), None, ["compute"]),
    (DEEP, None, ["compute"]),
    (P14, DEEP, ["verify", "--kind", "realizer"]),
    (dict(ANTICHAIN2, labels=["a"]), None, ["compute"]),
    (dict(ANTICHAIN2, labels=[[1], [2]]), None, ["compute"]),
    # t is refused before any mark is read: here the marks are small, but
    # one mark near t would be a t-bit (12.5 GB) integer
    (P15, dict(DIST, t=10 ** 11), ["verify", "--kind", "distinguishing"]),
    (ANTICHAIN2, ANTICHAIN2_WEIGHTS % ('"7e-1"', '"3/10"', '"1"'),
     ["verify", "--kind", "fractional"]),
], ids=["top-level-array", "realizer-without-extensions",
        "non-numeric-weight", "family-without-sets", "infinite-weight",
        "overflowing-weight", "zero-denominator-weight", "realizer-float-entry",
        "realizer-bool-entry", "fractional-float-entry", "number-weights",
        "bool-weight", "boolean-int-query-string", "boolean-tau-string",
        "boolean-tau-object", "boolean-repeated-query-string", "marks-above-t",
        "mark-zero", "bool-mark", "repeated-mark", "negative-t", "bool-k",
        "bool-ground", "float-ground", "float-poset-size",
        "bool-relation-entry", "bool-set-entry", "deep-input",
        "deep-certificate", "too-few-labels", "non-string-labels", "huge-t",
        "exponent-weight"])
def test_malformed_documents_exit_2(tmp_path, capsys, doc, cert, argv):
    """doc and cert are JSON values, or raw JSON text for what json.dumps
    cannot write (1e400, nesting past the recursion limit) or writes only
    from a value the test would have to build."""
    fam = tmp_path / "input.json"
    fam.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    args = [argv[0], str(fam)]
    if cert is not None:
        path = tmp_path / "cert.json"
        path.write_text(cert if isinstance(cert, str) else json.dumps(cert))
        args.append(str(path))
    assert run(args + argv[1:]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compute", "{dir}"],
    ["compute", "{bad}"],
    ["verify", "{p14}", "{bad}", "--kind", "realizer"],
    ["compute", "{p14}", "--out", "{dir}"],
], ids=["input-is-directory", "non-utf8-input", "non-utf8-certificate",
        "unwritable-out"])
def test_unreadable_files_exit_2(tmp_path, capsys, argv):
    paths = {"dir": tmp_path, "bad": tmp_path / "bad.json",
             "p14": tmp_path / "p14.json"}
    paths["bad"].write_bytes(b'{"schema": "\xff\xfe"}')
    paths["p14"].write_text(json.dumps(P14))
    assert run([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv, spec", [
    (["theorems", "--population", "random:5,3"], "random:5,3"),
    (["theorems", "--population", "named:pkn=1"], "pkn=1"),
    (["theorems", "--population", "enumerate:x"], "enumerate:x"),
    (["gen", "linear", "--n", "3", "--perm", "1,2,x"], "1,2,x"),
    (["compute", "p15.json", "--budget", "-5"], "got -5"),
    (["theorems", "--population", "enumerate:3", "--budget", "-3"], "got -3"),
], ids=["random-too-few", "named-too-few", "enumerate-not-int", "perm-not-int",
        "compute-negative-budget", "theorems-negative-budget"])
def test_bad_specs_exit_2(capsys, argv, spec):
    try:
        code = run(argv)
    except SystemExit as exc:    # the parser reports its own usage errors
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert spec in err
    assert "Traceback" not in err


def test_verify_certificates(tmp_path):
    fam = tmp_path / "p14.json"
    run(["gen", "pkn", "--k", "1", "--n", "4", "--out", str(fam)])
    # fractional certificate accepts
    from ordim import pkn, pkn_fractional_certificate
    cert = tmp_path / "frac.json"
    cert.write_text(serialize.dumps(
        serialize.certificate_to_json(pkn_fractional_certificate(1, 4))))
    assert run(["verify", str(fam), str(cert), "--kind", "fractional"]) == 0
    # truncated realizer rejects
    from ordim import dm_dimension, Realizer
    res = dm_dimension(pkn(1, 4).poset)
    trunc = Realizer(res.realizer.extensions[:-1])
    cert2 = tmp_path / "trunc.json"
    cert2.write_text(serialize.dumps(serialize.certificate_to_json(trunc)))
    assert run(["verify", str(fam), str(cert2), "--kind", "realizer"]) == 5
    # full realizer accepts
    cert3 = tmp_path / "full.json"
    cert3.write_text(serialize.dumps(serialize.certificate_to_json(res.realizer)))
    assert run(["verify", str(fam), str(cert3), "--kind", "realizer"]) == 0


def test_verify_fractional_string_weights(tmp_path, capsys):
    # the weights refused as JSON numbers above are exact as strings
    fam = tmp_path / "antichain.json"
    fam.write_text(json.dumps(ANTICHAIN2))
    cert = tmp_path / "cert.json"
    cert.write_text(ANTICHAIN2_WEIGHTS % ('"7/10"', '"3/10"', '"1"'))
    assert run(["verify", str(fam), str(cert), "--kind", "fractional"]) == 0
    assert "total weight 2" in capsys.readouterr().out


def test_verify_distinguishing(tmp_path):
    from ordim import binary_distinguishing
    fam = tmp_path / "p15.json"
    run(["gen", "pkn", "--k", "1", "--n", "5", "--out", str(fam)])
    cert = tmp_path / "dist.json"
    cert.write_text(serialize.dumps(
        serialize.certificate_to_json(binary_distinguishing(5))))
    assert run(["verify", str(fam), str(cert), "--kind", "distinguishing"]) == 0
    # wrong family pairing rejects
    fam2 = tmp_path / "b3.json"
    run(["gen", "boolean", "--n", "3", "--out", str(fam2)])
    assert run(["verify", str(fam2), str(cert), "--kind", "distinguishing"]) == 5


def test_verify_distinguishing_decides_pkn_without_building_it(tmp_path, capsys):
    # pkn(8,24) has 2,579,130 members; the rules reject a 3-element family
    # at once instead of building them to compare
    fam = tmp_path / "b3.json"
    run(["gen", "boolean", "--n", "3", "--out", str(fam)])
    cert = tmp_path / "big.json"
    cert.write_text(json.dumps({"schema": DIST["schema"], "k": 8, "n": 24,
                                "t": 1, "sets": [[]] * 24}))
    capsys.readouterr()
    assert run(["verify", str(fam), str(cert), "--kind", "distinguishing"]) == 5
    assert capsys.readouterr().out == "reject: input family is not pkn(8,24)\n"


S2 = {"schema": "ordim/poset/1", "n": 4, "relation": [[0, 3], [1, 2]]}


def pinned_certificate(name):
    """The certificate a verdict line below is pinned on, built afresh."""
    from ordim import (BooleanRealizer, ConvexRealizer, DistinguishingSequence,
                       FractionalRealizer, LocalRealizer, Realizer,
                       boolean_dimension_exact, convex_dimension,
                       pkn_fractional_certificate, poset_from_relation)
    G = pkn(1, 4)
    if name.startswith("realizer"):
        exts = dm_dimension(G.poset).realizer.extensions
        return Realizer(exts[:1] if name == "realizer-one" else exts)
    if name.startswith("convex"):
        perms = convex_dimension(G).realizer.perms
        return ConvexRealizer(perms[:1] if name == "convex-one" else perms)
    if name.startswith("local"):
        ples = ((1, 2, 0, 3), (0, 3, 1, 2))
        return LocalRealizer(ples[:1] if name == "local-one" else ples)
    if name.startswith("boolean"):
        cert = boolean_dimension_exact(poset_from_relation(4, [(0, 3), (1, 2)]))[1]
        if name == "boolean-no-tau":
            return BooleanRealizer(cert.orders, frozenset())
        return cert
    if name.startswith("fractional"):
        weighted = pkn_fractional_certificate(1, 4).weighted
        return FractionalRealizer(
            weighted[1:] if name == "fractional-short" else weighted)
    seq = binary_distinguishing(5)
    if name == "distinguishing-reversed":
        return DistinguishingSequence(seq.k, seq.n, seq.t, seq.sets[::-1])
    return seq


P14_FAMILY = serialize.family_to_json(pkn(1, 4).family)
B3 = {"schema": "ordim/setfamily/1", "ground": 3,
      "sets": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]}


@pytest.mark.parametrize("doc, name, kind, line, code", [
    (P14_FAMILY, "realizer", "realizer", "accept realizer certificate", 0),
    (P14_FAMILY, "realizer-one", "realizer", "reject realizer certificate", 5),
    (P14_FAMILY, "convex", "convex", "accept convex certificate", 0),
    (P14_FAMILY, "convex-one", "convex", "reject convex certificate", 5),
    (S2, "local", "local", "accept local certificate (max multiplicity 2)", 0),
    (S2, "local-one", "local", "reject local certificate (max multiplicity 1)", 5),
    (S2, "boolean", "boolean", "accept boolean certificate", 0),
    (S2, "boolean-no-tau", "boolean", "reject boolean certificate", 5),
    (P14_FAMILY, "fractional", "fractional",
     "accept fractional certificate (total weight 15/4)", 0),
    (P14_FAMILY, "fractional-short", "fractional",
     "reject fractional certificate (total weight 7/2)", 5),
    (P15, "distinguishing", "distinguishing", "accept distinguishing certificate", 0),
    (P15, "distinguishing-reversed", "distinguishing",
     "reject distinguishing certificate (fails on member (3,))", 5),
    (B3, "distinguishing", "distinguishing",
     "reject: input family is not pkn(1,5)", 5),
], ids=["realizer", "realizer-one", "convex", "convex-one", "local",
        "local-one", "boolean", "boolean-no-tau", "fractional",
        "fractional-short", "distinguishing", "distinguishing-reversed",
        "distinguishing-not-pkn"])
def test_verify_verdict_lines(tmp_path, capsys, doc, name, kind, line, code):
    """Each kind's accept and reject line, byte for byte, and its exit code."""
    fam = tmp_path / "input.json"
    fam.write_text(json.dumps(doc))
    cert = tmp_path / "cert.json"
    cert.write_text(serialize.dumps(serialize.certificate_to_json(
        pinned_certificate(name))))
    assert run(["verify", str(fam), str(cert), "--kind", kind]) == code
    assert capsys.readouterr().out == line + "\n"


def test_verify_kind_choices_in_order(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--help"])
    assert exc.value.code == 0
    assert ("--kind {realizer,convex,boolean,local,fractional,distinguishing}"
            in capsys.readouterr().out)


def test_theorems_table(tmp_path, capsys):
    code = run(["theorems", "--population", "named:linear=3;boolean=2",
                "--checks", "Thm3.1,Thm3.4,Prop3.8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


@pytest.mark.parametrize("check", ["T1.5:1", "Thm3.1:anything"])
def test_theorems_check_names_are_exact(capsys, check):
    # a row name or a base name with a suffix selects nothing: usage error
    assert run(["theorems", "--population", "named:pkn=1,5",
                "--checks", check]) == 2
    assert repr(check) in capsys.readouterr().err


def test_theorems_json(tmp_path):
    out = tmp_path / "rows.json"
    code = run(["theorems", "--population", "enumerate:2",
                "--format", "json", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    assert doc["failures"] == 0


def test_export_dot(tmp_path):
    fam = tmp_path / "p15.json"
    run(["gen", "pkn", "--k", "1", "--n", "5", "--out", str(fam)])
    dot = tmp_path / "p15.dot"
    assert run(["export", str(fam), "--format", "dot", "--out", str(dot)]) == 0
    text = dot.read_text()
    assert text.count("n0 ->") >= 1
    assert text.count('fillcolor="white"') == 11   # the meet-irreducibles


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen", "random", "--n", "5", "--t", "3", "--seed", "9", "--out", str(a)])
    run(["gen", "random", "--n", "5", "--t", "3", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_enumerate_gen(tmp_path):
    out = tmp_path / "all3.json"
    assert run(["gen", "enumerate", "--n", "3", "--out", str(out)]) == 0
    assert len(read_json(out)["families"]) == 22


def test_budget_exit_code(tmp_path):
    fam = tmp_path / "p18.json"
    run(["gen", "pkn", "--k", "1", "--n", "8", "--out", str(fam)])
    rep = tmp_path / "rep.json"
    code = run(["compute", str(fam), "--only", "dim", "--budget", "5",
                "--out", str(rep)])
    assert code == 4
    assert read_json(rep)["params"] == {}
    # a zero budget is a budget, not a usage error
    assert run(["compute", str(fam), "--only", "dim", "--budget", "0",
                "--out", str(rep)]) == 4


@pytest.mark.parametrize("argv, cert", [
    (["verify", "--kind", "convex"],
     {"schema": "ordim/certificate/convex/1", "perms": [[1, 2]]}),
    (["verify", "--kind", "distinguishing"], DIST),
    (["export"], None),
], ids=["verify-convex", "verify-distinguishing", "export"])
def test_family_commands_refuse_poset_input_exit_2(tmp_path, capsys, argv, cert):
    pos = tmp_path / "s2.json"
    pos.write_text(json.dumps(ANTICHAIN2))
    args = [argv[0], str(pos)]
    if cert is not None:
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        args.append(str(path))
    assert run(args + argv[1:]) == 2
    assert capsys.readouterr().err.endswith(" a set family input\n")


def test_compute_poset_input(tmp_path):
    # plain poset documents support dim/se/fdim
    doc = {"schema": "ordim/poset/1", "n": 4,
           "relation": [[0, 3], [1, 2]]}      # the standard example S_2
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(doc))
    rep = tmp_path / "rep.json"
    assert run(["compute", str(path), "--out", str(rep)]) == 0
    params = read_json(rep)["params"]
    assert params == {"dim": 2, "se": 2, "fdim": "2"}
    # geometry-only parameters are refused for posets
    assert run(["compute", str(path), "--only", "cdim"]) == 2


@pytest.mark.parametrize("doc", [
    {"schema": "ordim/setfamily/1", "ground": 2, "sets": [[], [1], [1, 2]]},
    {"schema": "ordim/poset/1", "n": 4, "relation": [[0, 3], [1, 2]]},
], ids=["geometry", "poset"])
def test_compute_misspelled_param_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert run(["compute", str(path), "--only", "dimm,fdimm"]) == 2
    err = capsys.readouterr().err
    assert "['dimm', 'fdimm']" in err


def test_compute_poset_antichain_fdim(tmp_path):
    # a 19-element antichain has 2^19 downsets; pricing over its 342
    # critical pairs never enumerates them
    doc = {"schema": "ordim/poset/1", "n": 19, "relation": []}
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(doc))
    rep = tmp_path / "rep.json"
    assert run(["compute", str(path), "--only", "fdim", "--out", str(rep)]) == 0
    report = read_json(rep)
    assert report["params"] == {"fdim": "2"}
    assert report["warnings"] == []
    cert = serialize.certificate_from_json(report["certificates"]["fractional"])
    P = serialize.poset_from_json(doc)
    assert verify_fractional_realizer(P, cert) == (True, Fraction(2))


def test_compute_fdim_out_of_budget_states_interval(tmp_path):
    fam = tmp_path / "p17.json"
    run(["gen", "pkn", "--k", "1", "--n", "7", "--out", str(fam)])
    rep = tmp_path / "rep.json"
    code = run(["compute", str(fam), "--only", "fdim", "--budget", "200",
                "--out", str(rep)])
    assert code == 4
    report = read_json(rep)
    assert report["params"] == {}
    (warning,) = report["warnings"]
    m = re.fullmatch(r"fractional dimension out of budget "
                     r"\(proved (\d+(?:/\d+)?) <= fdim <= (\d+(?:/\d+)?)\)", warning)
    assert m, warning
    lower, upper = Fraction(m[1]), Fraction(m[2])
    assert 1 <= lower <= Fraction(11, 4) <= upper
    assert lower < upper


def test_verify_convex_boolean_local(tmp_path):
    from ordim import convex_dimension, pkn, boolean_dimension_exact
    from ordim.certificates import LocalRealizer
    fam = tmp_path / "p14.json"
    run(["gen", "pkn", "--k", "1", "--n", "4", "--out", str(fam)])
    G = pkn(1, 4)

    conv = tmp_path / "conv.json"
    conv.write_text(serialize.dumps(
        serialize.certificate_to_json(convex_dimension(G).realizer)))
    assert run(["verify", str(fam), str(conv), "--kind", "convex"]) == 0

    # Boolean certificate for a 4-element poset document
    doc = {"schema": "ordim/poset/1", "n": 4, "relation": [[0, 3], [1, 2]]}
    pos = tmp_path / "s2.json"
    pos.write_text(json.dumps(doc))
    from ordim import poset_from_relation
    bd, bcert = boolean_dimension_exact(poset_from_relation(4, [(0, 3), (1, 2)]))
    bpath = tmp_path / "bool.json"
    bpath.write_text(serialize.dumps(serialize.certificate_to_json(bcert)))
    assert run(["verify", str(pos), str(bpath), "--kind", "boolean"]) == 0

    lpath = tmp_path / "local.json"
    lpath.write_text(serialize.dumps(serialize.certificate_to_json(
        LocalRealizer(((1, 2, 0, 3), (0, 3, 1, 2))))))
    assert run(["verify", str(pos), str(lpath), "--kind", "local"]) == 0
    # wrong kind flag for the certificate shape is a usage error
    assert run(["verify", str(pos), str(lpath), "--kind", "realizer"]) == 2


@pytest.mark.parametrize("kind, given", [
    ("realizer", "fractional"), ("fractional", "realizer"),
    ("convex", "realizer"), ("boolean", "convex"), ("local", "fractional"),
    ("distinguishing", "convex")])
def test_verify_kind_mismatch_exits_2(tmp_path, capsys, kind, given):
    from ordim import convex_dimension, dm_dimension, pkn_fractional_certificate
    G = pkn(1, 4)
    certs = {"realizer": dm_dimension(G.poset).realizer,
             "fractional": pkn_fractional_certificate(1, 4),
             "convex": convex_dimension(G).realizer}
    fam = tmp_path / "p14.json"
    run(["gen", "pkn", "--k", "1", "--n", "4", "--out", str(fam)])
    cert = tmp_path / "cert.json"
    cert.write_text(serialize.dumps(serialize.certificate_to_json(certs[given])))
    assert run(["verify", str(fam), str(cert), "--kind", kind]) == 2
    err = capsys.readouterr().err
    assert err == f"error: certificate is not a {kind} certificate\n"


def test_compute_pn6(tmp_path):
    fam = tmp_path / "pn6.json"
    run(["gen", "pn", "--n", "6", "--out", str(fam)])
    rep = tmp_path / "rep.json"
    assert run(["compute", str(fam), "--only", "dim,cdim", "--out", str(rep)]) == 0
    assert read_json(rep)["params"] == {"dim": 3, "cdim": 7}


def test_every_generator_roundtrips_through_compute(tmp_path):
    cases = [
        ["gen", "linear", "--n", "4"],
        ["gen", "boolean", "--n", "3"],
        ["gen", "pkn", "--k", "2", "--n", "5"],
        ["gen", "pn", "--n", "3"],
        ["gen", "random", "--n", "5", "--t", "2", "--seed", "3"],
    ]
    for i, argv in enumerate(cases):
        fam = tmp_path / f"g{i}.json"
        assert run(argv + ["--out", str(fam)]) == 0
        assert run(["compute", str(fam), "--only", "maxdd,se"]) == 0


# ---------------------------------------------------------------------------
# fuzzing: every document the CLI reads ends in a contract exit code

# sizes are small or absurd: a mid-sized antichain is a slow instance, not a
# malformed one, while 10^12 elements must be refused before any is built
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 8), st.just(10 ** 12),
                 st.floats(allow_nan=False), st.text(max_size=4),
                 st.lists(st.integers(-1, 6), max_size=3), st.just({}))
INDICES = st.lists(st.integers(0, 5), max_size=6)


@st.composite
def field(draw, good):
    """A value drawn from `good`, or one time in eight of any shape at all."""
    return draw(JUNK) if draw(st.integers(0, 7)) == 0 else draw(good)


def document(schema, **fields):
    return field(st.fixed_dictionaries(
        {"schema": st.just(schema),
         **{name: field(good) for name, good in fields.items()}}))


P14_REALIZER = serialize.certificate_to_json(dm_dimension(pkn(1, 4).poset).realizer)
INPUTS = st.one_of(
    field(st.sampled_from([P14, P15, ANTICHAIN2,
                           serialize.family_to_json(pkn(1, 4).family),
                           serialize.family_to_json(pkn(2, 5).family)])),
    st.integers(1, 4).flatmap(lambda g: document(
        "ordim/setfamily/1", ground=st.just(g),
        sets=st.lists(st.lists(st.integers(1, g), max_size=g), max_size=8))),
    st.integers(1, 5).flatmap(lambda n: document(
        "ordim/poset/1", n=st.just(n),
        relation=st.lists(st.lists(st.integers(0, n - 1), min_size=2,
                                   max_size=2), max_size=n))))
WEIGHTS = st.one_of(st.sampled_from(["1", "1/2", "-1", "3/0", "1e999999999"]),
                    st.text("0123456789./-e", max_size=6))
# t reaches the huge value that used to cost a t-bit mask, but marks stay
# small, so a reader that lost the size check would answer, not exhaust memory
CERTIFICATES = st.one_of(
    field(st.sampled_from([
        DIST, dict(DIST, sets=DIST["sets"][::-1]), P14_REALIZER,
        dict(P14_REALIZER, extensions=P14_REALIZER["extensions"][1:]),
        json.loads(ANTICHAIN2_WEIGHTS % ('"7/10"', '"3/10"', '"1"')),
        json.loads(ANTICHAIN2_WEIGHTS % ('"7/10"', '"1/10"', '"1"'))])),
    document("ordim/certificate/realizer/1", extensions=st.lists(INDICES, max_size=4)),
    document("ordim/certificate/convex/1", perms=st.lists(INDICES, max_size=4)),
    document("ordim/certificate/local/1", ples=st.lists(INDICES, max_size=4)),
    document("ordim/certificate/boolean/1", orders=st.lists(INDICES, max_size=3),
             tau=st.lists(st.text("01", max_size=3), max_size=4)),
    document("ordim/certificate/fractional/1", weighted=st.lists(
        st.fixed_dictionaries({"extension": field(INDICES),
                               "weight": field(WEIGHTS)}), max_size=4)),
    document("ordim/certificate/distinguishing/1", k=st.integers(-1, 3),
             n=st.integers(-1, 6), t=st.sampled_from([0, 1, 3, 4, 10 ** 11]),
             sets=st.lists(st.lists(st.integers(1, 4), max_size=4), max_size=6)))
# a verify kind of None stands for the certificate's own kind
COMMANDS = st.one_of(
    st.tuples(st.just("compute"), st.sampled_from(
        [[], ["--only", "dim,se"], ["--only", "cdim,fdim"], ["--only", "x"],
         ["--budget", "0"], ["--budget", "3"]])),
    st.tuples(st.just("verify"),
              st.sampled_from([None, *sorted(serialize.CERTIFICATE_KINDS)])),
    st.tuples(st.just("export"), st.sampled_from(["dot", "json"])))


def own_kind(cert):
    schema = cert.get("schema") if isinstance(cert, dict) else None
    return next((kind for kind in serialize.CERTIFICATE_KINDS
                 if schema == serialize.SCHEMAS[kind]), "realizer")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(INPUTS, CERTIFICATES, COMMANDS)
def test_cli_fuzz_exits_by_contract(doc, cert, command):
    name, option = command
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "input.json"), os.path.join(tmp, "cert.json")]
        for path, value in zip(paths, (doc, cert)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(value, fh)
        out = ["--out", os.path.join(tmp, "out")]
        if name == "compute":
            argv = ["compute", paths[0], *option, *out]
        elif name == "verify":
            argv = ["verify", *paths, "--kind", option or own_kind(cert)]
        else:
            argv = ["export", paths[0], "--format", option, *out]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(argv)
    assert code in {0, 2, 3, 4, 5}
