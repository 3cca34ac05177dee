"""JSON schemas for families, posets, certificates and reports, plus DOT
export of Hasse diagrams.

Every artifact carries a schema tag. Serialization is deterministic: keys are
sorted and no volatile data (timings, hostnames) is written, so identical
inputs produce byte-identical files. CERTIFICATE_KINDS holds one record per
certificate kind, which the writer, the reader and `ordim verify` all read.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .certificates import (BooleanRealizer, FractionalRealizer, LocalRealizer,
                           Realizer, verify_boolean_realizer,
                           verify_fractional_realizer, verify_local_realizer,
                           verify_realizer)
from .constructions import is_pkn
from .dimensions import (DimensionReport, DistinguishingSequence,
                         verify_distinguishing)
from .errors import MalformedCertificate
from .geometry import (ConvexGeometry, ConvexRealizer, SetFamily, set_label,
                       verify_convex_realizer)
from .order import Poset, poset_from_relation


@contextmanager
def _shape(kind: str):
    """Read a `kind` document: a value of the wrong shape (not an object, a
    missing field, a field of the wrong type) or a number that cannot be
    read exactly (an infinite weight, a zero denominator) raises
    MalformedCertificate."""
    try:
        yield
    except (ArithmeticError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise MalformedCertificate(f"malformed {kind} document: {exc!r}") from exc


def _indices(seq) -> tuple:
    """seq as a tuple of element indices. JSON 0.0 and true would pass a
    permutation check (0.0 == 0, true == 1) and then fail, or be misread,
    as an index, so every entry must be an int proper."""
    out = tuple(seq)
    if not {int}.issuperset(map(type, out)):
        raise MalformedCertificate(f"malformed element list {seq!r}: not all ints")
    return out


# Bounds on the sizes a document may ask for, so that a few bytes cannot
# ask for gigabytes. A poset's up and down rows take n^2 bits, 64 MB at the
# bound, and a family's masks `ground` bits each. Reading a poset is one
# topological pass with one row OR per listed pair: a 16,384-element chain
# loads in 0.15 s, and `ordim compute --only dim,se,fdim` on it takes 0.45 s
# (2-vCPU Xeon VM, Python 3.11). Still unbounded: before any node budget
# counts, a poset builds its pair relations (`Poset.pair_data`), n rows of
# t bits for t critical pairs, and the clique search does t-bit ANDs per
# pick: a 400-element antichain (t = 159,600) takes 77 MB and 9 s, 7 in the
# clique search. A distinguishing sequence's masks take up to (number of
# sets) * t bits, and one mark near t makes a t-bit mask: ordim's own reach
# 229,362 bits (pkn_fractional_certificate at n = 14, t = 2^14 - 1) and
# randomized_distinguishing 1,760 on pkn(1,32).
MAX_ELEMENTS = 1 << 14
MAX_MARK_BITS = 1 << 24


def _count(value, field: str, most: int = MAX_ELEMENTS) -> int:
    """A count or size as a JSON integer in 0..most. int() would read true
    as 1 and 2.9 as 2, and a negative t would make a shift count negative."""
    if type(value) is not int or not 0 <= value <= most:
        raise MalformedCertificate(
            f"malformed {field} {value!r}: not an integer in 0..{most}")
    return value


def _labels(labels, n: int):
    """Optional element labels: a list of exactly n strings, or None. The
    labels are written back out with the poset, one per element."""
    if labels is not None and (type(labels) is not list or len(labels) != n
                               or not {str}.issuperset(map(type, labels))):
        raise MalformedCertificate(
            f"malformed labels {labels!r}: not a list of {n} strings")
    return labels


def _weight(text) -> Fraction:
    """A weight written as a string ("7/10"); a JSON number 0.7 would be
    read as its binary double, not 7/10, so it is refused. So is an exponent:
    Fraction expands "1e10000000" into a 33-million-bit integer (about 10 s
    on a 2-vCPU Xeon VM, Python 3.11), and each further exponent digit
    multiplies that."""
    if type(text) is not str:
        raise MalformedCertificate(f"malformed weight {text!r}: not a string")
    if "e" in text.lower():
        raise MalformedCertificate(f"malformed weight {text!r}: has an exponent")
    return Fraction(text)


def _marks(seq, t: int) -> int:
    """A set of marks as a bitmask. Marks are distinct ints proper in 1..t: a
    repeated mark or a JSON true would otherwise be misread, and a mark
    above t would claim more extensions than the certificate has."""
    mask = 0
    for m in seq:
        if type(m) is not int or not 1 <= m <= t or (mask >> (m - 1)) & 1:
            raise MalformedCertificate(
                f"malformed mark list {seq!r}: not distinct ints in 1..{t}")
        mask |= 1 << (m - 1)
    return mask


def _tau(seq) -> frozenset:
    """A list of distinct strings, as a set. frozenset() alone would read a
    string or an object as its characters or keys, and merge repeats."""
    if (type(seq) is not list or not {str}.issuperset(map(type, seq))
            or len(set(seq)) != len(seq)):
        raise MalformedCertificate(
            f"malformed tau {seq!r}: not a list of distinct strings")
    return frozenset(seq)


# the string encoder json uses with ensure_ascii=False (C when available)
_string = json.encoder.encode_basestring


def dumps(obj: dict) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)` plus
    a newline, byte for byte, for documents whose object keys are strings.
    With an indent, json falls back to its pure-Python encoder and writes
    every int of a long list through it; here a list of plain ints, the bulk
    of a certificate, is one join, and strings go through the C string
    encoder."""
    return _dump(obj, "\n") + "\n"


def _dump(obj, pad: str) -> str:
    """obj written as by json.dumps with indent=2, its closing bracket on a
    line that starts with pad (a newline and the enclosing indent)."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            f"{_string(k)}: {_dump(v, inner)}" for k, v in sorted(obj.items())
        ) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if all(type(x) is int for x in obj):
            body = map(str, obj)
        else:
            body = (_dump(x, inner) for x in obj)
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if isinstance(obj, str):
        return _string(obj)
    return json.dumps(obj)



def family_to_json(fam: SetFamily, meta: Optional[dict] = None) -> dict:
    doc = {
        "schema": SCHEMAS["setfamily"],
        "ground": fam.ground_n,
        "sets": [list(s) for s in fam.sets()],
    }
    if meta:
        doc["meta"] = meta
    return doc


def families_to_json(ground: int, fams) -> dict:
    return {
        "schema": SCHEMAS["setfamilies"],
        "ground": ground,
        "families": [[list(s) for s in f.sets()] for f in fams],
    }


def family_from_json(doc: dict) -> SetFamily:
    with _shape("set family"):
        if doc.get("schema") != SCHEMAS["setfamily"]:
            raise MalformedCertificate(f"not a set family document: {doc.get('schema')!r}")
        return SetFamily.from_sets(_count(doc["ground"], "ground"),
                                   [_indices(s) for s in doc["sets"]])


def poset_to_json(P: Poset) -> dict:
    doc = {
        "schema": SCHEMAS["poset"],
        "n": P.n,
        "relation": [[x, y] for x, y in P.covers],
    }
    if P.labels:
        doc["labels"] = list(P.labels)
    return doc


def poset_from_json(doc: dict) -> Poset:
    with _shape("poset"):
        if doc.get("schema") != SCHEMAS["poset"]:
            raise MalformedCertificate(f"not a poset document: {doc.get('schema')!r}")
        n = _count(doc["n"], "n")
        return poset_from_relation(n, [_indices(p) for p in doc["relation"]],
                                   labels=_labels(doc.get("labels"), n))


def read_json(path: str):
    """Parse a JSON file. Nesting deeper than the interpreter's recursion
    limit makes the parser raise RecursionError; that is malformed input, so
    it raises MalformedCertificate here."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedCertificate(
                f"malformed JSON in {path}: nested too deeply") from None


def load_document(path: str):
    """Read a JSON artifact and build the matching in-memory object.

    Set families come back as (SetFamily, None); posets as (None, Poset).
    """
    doc = read_json(path)
    with _shape("input"):
        schema = doc.get("schema", "")
    if schema == SCHEMAS["setfamily"]:
        return family_from_json(doc), None
    if schema == SCHEMAS["poset"]:
        return None, poset_from_json(doc)
    raise MalformedCertificate(f"unsupported document schema {schema!r}")


# ---------------------------------------------------------------------------
# certificates

class CertificateKind(NamedTuple):
    """write maps a certificate to its payload (the document less its schema
    tag), read maps a document back, and check maps (geometry or None, poset,
    certificate) to (verdict, detail). A verdict of None refuses the input
    itself, before the certificate is checked; detail says why."""
    cls: type
    write: Callable
    read: Callable
    check: Callable
    needs_family: bool = False


def _labelled(label: str, ok: bool, value) -> tuple:
    return ok, f"{label} {value}"


def _check_distinguishing(G, P, seq):
    if not is_pkn(G.family, seq.k, seq.n):
        return None, f"input family is not pkn({seq.k},{seq.n})"
    ok, witness = verify_distinguishing(seq.k, seq.n, seq)
    return ok, "" if ok else f"fails on member {witness}"


def _read_distinguishing(doc) -> DistinguishingSequence:
    sets = doc["sets"]
    t = _count(doc["t"], "t", MAX_MARK_BITS // max(len(sets), 1))
    return DistinguishingSequence(_count(doc["k"], "k"), _count(doc["n"], "n"),
                                  t, tuple(_marks(marks, t) for marks in sets))


# every certificate kind, in `ordim verify --kind` order
CERTIFICATE_KINDS = {
    "realizer": CertificateKind(
        Realizer,
        lambda c: {"extensions": [list(e) for e in c.extensions]},
        lambda d: Realizer(tuple(_indices(e) for e in d["extensions"])),
        lambda G, P, c: (verify_realizer(P, c), "")),
    "convex": CertificateKind(
        ConvexRealizer,
        lambda c: {"perms": [list(p) for p in c.perms]},
        lambda d: ConvexRealizer(tuple(_indices(p) for p in d["perms"])),
        lambda G, P, c: (verify_convex_realizer(G, c.perms), ""),
        needs_family=True),
    "boolean": CertificateKind(
        BooleanRealizer,
        lambda c: {"orders": [list(o) for o in c.orders], "tau": sorted(c.tau)},
        lambda d: BooleanRealizer(tuple(_indices(o) for o in d["orders"]),
                                  _tau(d["tau"])),
        lambda G, P, c: (verify_boolean_realizer(P, c), "")),
    "local": CertificateKind(
        LocalRealizer,
        lambda c: {"ples": [list(p) for p in c.ples]},
        lambda d: LocalRealizer(tuple(_indices(p) for p in d["ples"])),
        lambda G, P, c: _labelled("max multiplicity", *verify_local_realizer(P, c))),
    "fractional": CertificateKind(
        FractionalRealizer,
        lambda c: {"weighted": [{"extension": list(e), "weight": str(w)}
                                for e, w in c.weighted]},
        lambda d: FractionalRealizer(tuple(
            (_indices(i["extension"]), _weight(i["weight"])) for i in d["weighted"])),
        lambda G, P, c: _labelled("total weight", *verify_fractional_realizer(P, c))),
    "distinguishing": CertificateKind(
        DistinguishingSequence,
        lambda c: {"k": c.k, "n": c.n, "t": c.t,
                   "sets": [list(c.set_of(i)) for i in range(1, c.n + 1)]},
        _read_distinguishing,
        _check_distinguishing,
        needs_family=True),
}
# every document's schema tag; a certificate kind's name is the middle
# segment of its tag
SCHEMAS = {
    "setfamily": "ordim/setfamily/1",
    "setfamilies": "ordim/setfamilies/1",
    "poset": "ordim/poset/1",
    "report": "ordim/report/1",
    **{name: f"ordim/certificate/{name}/1" for name in CERTIFICATE_KINDS},
}


def certificate_to_json(cert) -> dict:
    for name, kind in CERTIFICATE_KINDS.items():
        if isinstance(cert, kind.cls):
            return {"schema": SCHEMAS[name], **kind.write(cert)}
    raise MalformedCertificate(f"unknown certificate object {type(cert)!r}")


def certificate_from_json(doc: dict):
    with _shape("certificate"):
        schema = doc.get("schema", "")
        for name, kind in CERTIFICATE_KINDS.items():
            if schema == SCHEMAS[name]:
                return kind.read(doc)
        raise MalformedCertificate(f"unknown certificate schema {schema!r}")


# ---------------------------------------------------------------------------
# reports

def report_to_json(report: DimensionReport, meta: Optional[dict] = None) -> dict:
    params = {}
    for name in ("dim", "cdim", "maxdd", "se"):
        value = getattr(report, name)
        if value is not None:
            params[name] = value
    if report.fdim is not None:
        params["fdim"] = str(report.fdim)
    certs = {}
    if report.realizer is not None:
        certs["realizer"] = certificate_to_json(report.realizer)
    if report.convex_realizer is not None:
        certs["convex"] = certificate_to_json(report.convex_realizer)
    if report.fractional_realizer is not None:
        certs["fractional"] = certificate_to_json(report.fractional_realizer)
    doc = {
        "schema": SCHEMAS["report"],
        "params": params,
        "certificates": certs,
        "warnings": list(report.warnings),
    }
    if meta:
        doc["meta"] = meta
    return doc


# ---------------------------------------------------------------------------
# DOT export

def hasse_dot(G: ConvexGeometry) -> str:
    """Hasse diagram in DOT, meet-irreducible members drawn as white nodes.

    Set labels are rendered as plain digit strings (no braces or commas)."""
    mi = set(G.meet_irr)
    lines = ["digraph hasse {", "  rankdir=BT;",
             '  node [shape=ellipse, style=filled, fontname="Helvetica"];']
    for i, mask in enumerate(G.masks):
        fill = "white" if i in mi else "gray85"
        lines.append(f'  n{i} [label="{set_label(mask)}", fillcolor="{fill}"];')
    for x, y in G.poset.covers:
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
