"""JSON round trips, report determinism, DOT export."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ordim import (MalformedCertificate, Realizer, analyze, boolean_algebra,
                   linear_geometry, pkn, poset_from_relation, qn_pn,
                   random_geometry)
from ordim.certificates import BooleanRealizer, FractionalRealizer, LocalRealizer
from ordim.dimensions import DistinguishingSequence, binary_distinguishing
from ordim.geometry import ConvexRealizer
from ordim import serialize


def test_family_roundtrip():
    fam = pkn(1, 4).family
    doc = serialize.family_to_json(fam)
    back = serialize.family_from_json(json.loads(json.dumps(doc)))
    assert back.masks == fam.masks and back.ground_n == fam.ground_n


def test_poset_roundtrip():
    P = poset_from_relation(4, [(0, 1), (0, 2), (1, 3), (2, 3)],
                            labels=["a", "b", "c", "d"])
    back = serialize.poset_from_json(serialize.poset_to_json(P))
    assert back.up == P.up and back.labels == P.labels == ("a", "b", "c", "d")


def test_certificate_roundtrips():
    certs = [
        Realizer(((0, 1, 2), (0, 2, 1))),
        ConvexRealizer(((1, 2, 3), (2, 1, 3))),
        LocalRealizer(((1, 2, 0, 3), (0, 3))),
        BooleanRealizer(((0, 1, 2), (2, 1, 0)), frozenset({"10", "11"})),
        FractionalRealizer((((0, 1), Fraction(3, 2)),)),
        binary_distinguishing(5),
    ]
    for cert in certs:
        doc = serialize.certificate_to_json(cert)
        back = serialize.certificate_from_json(json.loads(json.dumps(doc)))
        assert back == cert


# strings with quotes, backslashes, control and non-ASCII characters, and
# any other text
_texts = st.text(st.sampled_from('a1"\\/\n\t\x00\x1f\x7fé∅€😀\u2028')) | st.text()
_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
            | st.fractions().map(str) | st.floats() | _texts)
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_texts, inner)
                   | st.lists(st.integers() | st.booleans())
                   | st.lists(st.integers()).map(tuple)),
    max_leaves=40)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_documents)
def test_dumps_matches_the_standard_library(doc):
    want = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert serialize.dumps(doc) == want


def test_unknown_schema_rejected():
    with pytest.raises(MalformedCertificate):
        serialize.certificate_from_json({"schema": "ordim/certificate/nope/9"})


def test_report_serialization_deterministic():
    rep1 = analyze(pkn(1, 4))
    rep2 = analyze(pkn(1, 4))
    doc1 = serialize.dumps(serialize.report_to_json(rep1))
    doc2 = serialize.dumps(serialize.report_to_json(rep2))
    assert doc1 == doc2                      # no volatile data reaches the artifact
    params = json.loads(doc1)["params"]
    assert params["fdim"] == "5/2" and params["dim"] == 3


def test_dot_export():
    dot = serialize.hasse_dot(linear_geometry((1, 2)))
    assert dot.startswith("digraph hasse {")
    assert dot.count("->") == 2              # a path graph
    dot = serialize.hasse_dot(boolean_algebra(3))
    assert dot.count("->") == 12             # the cube graph
    assert 'label="123"' in dot and 'label="∅"' in dot
    # meet-irreducibles (the three co-atoms) drawn white
    assert dot.count('fillcolor="white"') == 3


# sha256 of the ordim/report/1 text of analyze() on each geometry and on its
# bare poset: a change to any value, certificate or warning shows up here
REPORT_SHA256 = {
    "pkn(1,5)": ("89a0546400145485d4aadef8fe8cac6280d86148c5912d9fdf8719167ca0a72d",
                 "c72ed36fc9f0f397f612786a8707792f6b6ef514c5525182c71f93101ad62f7d"),
    "pkn(1,6)": ("9cbe00cb1df17f0fa12cd2add1e51f6359c327fb0c2b048fd65432e10068a3cf",
                 "f100fb4abc325653f5d4c8efa70fe69056fb02eefd09bf70ef9d25884b4b03d7"),
    "pkn(2,6)": ("ba6726c0ebe1cd1ea027ce9aa8a00149d5de97eaf220643dc27217e451e3ab46",
                 "1253fc1998470bb488fd94ed6d16ad55be50613091b83bc6d600fd3949c354ea"),
    "pn(4)": ("e6df9b5e9f5ec004118dd9aec18db280d05db656cea65a8efa09674b5a729cfc",
              "42c9a8130fd262c66a7589f09bf6f8de05ccd83b40900496a0fc81a12c107b59"),
    "random(5,3,1)": ("6b3fc23891b12478abe91f7548910f45cb5ebae4c1d2436527c2671e5d720105",
                      "4b9b4d62b433c7240d85ecc283bc31c2ffd52a8abca85f18f70e22f957717c82"),
    "random(5,3,2)": ("1f9d457b49d0f4bfd26f71e00c7413c363b40cc5f991ce426b7ba6e4c93883da",
                      "73db47fc2f33229f6d45c6f2fff8efab594526c60c07ff77859006f989a8ff5b"),
    "random(6,2,3)": ("76654545d7cad61d85c97049a51ae8c66002529b8c9a44a5835858f0b68c99ff",
                      "33e957e2492aea08795df74397bc49f37302134b82973ca5ccbb23cacf8b1949"),
    "random(6,3,4)": ("9e50be78202c66e000f7cfc11c9e2ec9fd9abdd00292450a22fdc85d18122bb4",
                      "fc87535db4fd64d4b81331e87d1197aa63a7f1becc89a69f4361bda5271b2249"),
    "random(7,3,5)": ("a33c5b0039399f4bc4ada5a67da61e60e45c49764cbceb2f9e2928525973cd20",
                      "7d3a954d0ba18e5b491347015530c58d6610cb1b7096aa72a3817966330168c6"),
    "random(8,2,6)": ("cd2ca51ce43dba6de29303c82192ea65f749cfc2751da714239c7a7ebdc93682",
                      "4fe551eb81aa5769e4a095727682ff5f6babfe31316ca1d5bd722f6ffde47566"),
    "random(7,4,7)": ("43ed59ce667b65e037b5e602ef54c22bc83b558661a98841b737f3febc9e4704",
                      "3146c20bcf5ca48c771f7776162e20651695f8e1f4da2be700284eede804a18a"),
}


def _golden_geometry(name):
    kind, args = name[:-1].split("(")
    ints = [int(v) for v in args.split(",")]
    if kind == "pkn":
        return pkn(*ints)
    if kind == "pn":
        return qn_pn(*ints)[1]
    return random_geometry(*ints)


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_match_golden_hashes(name):
    G = _golden_geometry(name)
    got = tuple(hashlib.sha256(serialize.dumps(serialize.report_to_json(
        analyze(X))).encode()).hexdigest() for X in (G, G.poset))
    assert got == REPORT_SHA256[name]
