"""CLI surface: subcommands, exit codes, artifact round trips, determinism."""

import json

import pytest

from ordim.cli import main
from ordim import serialize


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


@pytest.mark.parametrize("doc, cert, argv", [
    ([P14], None, ["compute"]),
    (P14, {"schema": "ordim/certificate/realizer/1"},
     ["verify", "--kind", "realizer"]),
    (P14, {"schema": "ordim/certificate/fractional/1",
           "weighted": [{"extension": [0, 1, 2], "weight": "abc"}]},
     ["verify", "--kind", "fractional"]),
    ({"schema": "ordim/setfamily/1", "ground": 2}, None, ["compute"]),
], ids=["top-level-array", "realizer-without-extensions",
        "non-numeric-weight", "family-without-sets"])
def test_malformed_documents_exit_2(tmp_path, capsys, doc, cert, argv):
    fam = tmp_path / "input.json"
    fam.write_text(json.dumps(doc))
    args = [argv[0], str(fam)]
    if cert is not None:
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        args.append(str(path))
    assert run(args + argv[1:]) == 2
    assert "malformed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, spec", [
    (["theorems", "--population", "random:5,3"], "random:5,3"),
    (["theorems", "--population", "named:pkn=1"], "pkn=1"),
    (["theorems", "--population", "enumerate:x"], "enumerate:x"),
    (["gen", "linear", "--n", "3", "--perm", "1,2,x"], "1,2,x"),
], ids=["random-too-few", "named-too-few", "enumerate-not-int", "perm-not-int"])
def test_bad_specs_exit_2(capsys, argv, spec):
    assert run(argv) == 2
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


def test_theorems_table(tmp_path, capsys):
    code = run(["theorems", "--population", "named:linear=3;boolean=2",
                "--checks", "Thm3.1,Thm3.4,Prop3.8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


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


def test_compute_poset_lattice_overflow_warns(tmp_path):
    # 2^19 downsets exceed the default limit of 500000 ideals
    doc = {"schema": "ordim/poset/1", "n": 19, "relation": []}
    path = tmp_path / "antichain.json"
    path.write_text(json.dumps(doc))
    rep = tmp_path / "rep.json"
    assert run(["compute", str(path), "--only", "fdim", "--out", str(rep)]) == 0
    report = read_json(rep)
    assert report["params"] == {}
    assert report["warnings"] == [
        "downset lattice too large, fractional dimension skipped"]


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
