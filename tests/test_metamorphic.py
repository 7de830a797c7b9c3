"""Metamorphic relations from the main theorem, run through `classify`.

The closure data of a group depend on the group, not on its list of
generators, so another generating list must give the same exit code, the
same verdicts (without their notes), the same shapes of Lambda and of the
closure of T, the same dimension of E_G and, point by point, the same
closure kind and `exact` flag.  Conjugating by phi(z) = alpha*z + beta keeps
every ratio and maps the orbit closure of z to that of phi(z): the same
answers for the mapped points, with the apex and E_G mapped by phi and T by
alpha.  Written with decimals in place of its rational literals, a document
keeps the shape of the closure of T and, with its ratios written so too,
the shape of the closure of Lambda and every verdict both forms decide.
The documents are exact documents of the CLI's input grammar in
dimensions 1 and 2.  On a few fixed documents, `verify` must give the same
exit code and `soundness_pass` for another generating list and for a
conjugate.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from homothety_orbits import Homothety
from homothety_orbits.affine_maps import as_point
from homothety_orbits.cli import main
from homothety_orbits.closed_subgroups import classify_additive_closure
from homothety_orbits.exact_algebra import (
    CYCLO_I,
    CycloScalar,
    Scalar,
    Trilean,
    format_scalar,
    parse_scalar,
)
from homothety_orbits.group_profile import AffineSubspace

SQRT3 = CycloScalar(0, 2, 0, -1)  # 2*zeta - zeta^3

# exact factors of the input grammar's scalars
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
factors = st.one_of(
    st.sampled_from(["i", "-i", "zeta12", "2", "1/2"]),
    fractions.map(str),
    fractions.map(lambda q: f"{q}i"),
    st.integers(-30, 30).map(lambda k: f"zeta12^{k}"),
)
roots = st.integers(1, 11).map(lambda k: f"zeta12^{k}")
scalars = st.builds(
    lambda sign, head, tail: sign + head + "".join(op + f for op, f in tail),
    st.sampled_from(["", "-"]),
    factors,
    st.lists(st.tuples(st.sampled_from("+-*"), factors), max_size=1),
)


@st.composite
def documents(draw):
    """(dim, generators as Homothety, points as strings, word cap)."""
    dim = draw(st.integers(1, 2))

    def point():
        return [draw(scalars) for _ in range(dim)]

    gens = []
    for _ in range(draw(st.sampled_from([2, 3]))):
        if draw(st.integers(0, 4)) == 0:
            t = as_point([parse_scalar(c) for c in point()])
            assume(any(c.eq_zero() is Trilean.NO for c in t))
            gens.append(Homothety.translation(t))
        else:
            # a root of unity half the time, so that Lambda is often finite
            # and T has Schreier generators
            ratio = parse_scalar(draw(st.one_of(roots, scalars)))
            assume(ratio.eq_zero() is Trilean.NO and ratio.eq(Scalar.integer(1)) is Trilean.NO)
            gens.append(Homothety.with_center(ratio, [parse_scalar(c) for c in point()]))
    # a free point, and every centre: each lies in E_G
    centres = [g.center() for g in gens if g.is_translation() is Trilean.NO]
    points = [point()] + [[format_scalar(c) for c in z] for z in centres]
    return dim, gens, points, draw(st.integers(0, 3))


def to_doc(dim, gens, points, word_cap) -> dict:
    generators = []
    for g in gens:
        if g.is_translation() is Trilean.YES:
            generators.append({"ratio": "1", "translation": [format_scalar(c) for c in g.shift]})
        else:
            generators.append({"ratio": format_scalar(g.ratio),
                               "center": [format_scalar(c) for c in g.center()]})
    return {"dim": dim, "generators": generators, "points": points,
            "options": {"word_cap": word_cap, "grid": 4}}


def classify(doc):
    """(exit code, report or None) of `classify` on the document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["classify", "--input", path])
    return code, (json.loads(out.getvalue()) if out.getvalue() else None)


def answers(code, report):
    """What a generating list of the group must not change."""
    if report is None:
        return (code,)
    profile = report.get("profile", {})
    verdicts = {k: v for k, v in report.get("verdicts", {}).items() if k != "notes"}
    return (
        code,
        verdicts,
        profile.get("lambda_closure", {}).get("shape"),
        profile.get("invariant_subspace", {}).get("dim"),
        profile.get("translation_closure", {}).get("shape"),
        [(c["kind"], c["exact"]) for c in report.get("closures", [])],
    )


def is_identity(h: Homothety) -> bool:
    return h.is_translation() is Trilean.YES and all(c.eq_zero() is Trilean.YES for c in h.shift)


def reversed_list(gens):
    return gens[::-1]


def first_inverted(gens):
    return [gens[0].inverse(), *gens[1:]]


def product_appended(gens):
    return [*gens, gens[0].compose(gens[1])]


def second_replaced_by_product(gens):
    return [gens[0], gens[0].compose(gens[1]), *gens[2:]]


@settings(max_examples=20)
@pytest.mark.parametrize(
    "relation", [reversed_list, first_inverted, product_appended, second_replaced_by_product]
)
@given(documents())
def test_another_generating_list_gives_the_same_answers(relation, document):
    dim, gens, points, cap = document
    other = relation(gens)
    assume(not any(is_identity(g) for g in other))
    before = answers(*classify(to_doc(dim, gens, points, cap)))
    after = answers(*classify(to_doc(dim, other, points, cap)))
    assert after == before


# ---------------------------------------------------------------------------
# decimal forms

# a rational literal of the grammar, not an exponent or part of "zeta12"
_RATIONAL_LITERAL = re.compile(r"(?<![\w^./])(\d+)(?:/(\d+))?(?![\d./])")


def as_decimals(text: str) -> str:
    """The scalar text with each rational literal written as a decimal."""
    return _RATIONAL_LITERAL.sub(lambda m: repr(int(m[1]) / int(m[2] or 1)), text)


@settings(max_examples=20)
@given(documents())
def test_decimal_centres_keep_the_shape_of_the_closure_of_T(document):
    # the centres and translations written as decimals feed T's closure
    # through the integer relations, which must find the exact shape; the
    # ratios stay exact, since a decimal ratio is never proved a root of
    # unity and T would then have no Schreier generators
    dim, gens, points, cap = document
    doc = to_doc(dim, gens, points, cap)
    decimal = json.loads(json.dumps(doc))
    for g in decimal["generators"]:
        key = "translation" if "translation" in g else "center"
        g[key] = [as_decimals(c) for c in g[key]]
    code, report = classify(doc)
    code2, report2 = classify(decimal)
    assert 0 <= code2 <= 4
    t = (report or {}).get("profile", {}).get("translation_closure")
    if t is not None:
        t2 = report2["profile"]["translation_closure"]
        assert t2["shape"] == t["shape"]
        # a document with no rational literal there stays exact
        assert t2["exact"] == (t["exact"] and decimal == doc)


def decided(verdicts) -> dict:
    """The verdicts of a report that are decided, without their notes."""
    return {k: v for k, v in verdicts.items() if k != "notes" and v != "unknown"}


@settings(max_examples=20)
@given(documents())
def test_decimal_ratios_keep_the_closure_of_Lambda_and_the_verdicts(document):
    # every rational literal written as a decimal, in the ratios too, but a
    # translation's ratio 1, which the grammar takes exact only: the
    # integer relations among (log|w|, arg w / 2pi) must find the shape of
    # Lambda's exact closure, where that has one, and a verdict both forms
    # decide must agree; a decimal form may exit with any code from 0 to 4
    dim, gens, points, cap = document
    doc = to_doc(dim, gens, points, cap)
    decimal = json.loads(json.dumps(doc))
    for g in decimal["generators"]:
        key = "translation" if "translation" in g else "center"
        if key == "center":
            g["ratio"] = as_decimals(g["ratio"])
        g[key] = [as_decimals(c) for c in g[key]]
    code, report = classify(doc)
    code2, report2 = classify(decimal)
    assert 0 <= code2 <= 4
    if code2 != 0 or code != 0:
        return
    lam = report["profile"]["lambda_closure"]
    lam2 = report2["profile"]["lambda_closure"]
    if lam["shape"] != "Unknown":
        assert lam2["shape"] == lam["shape"]
    both = decided(report["verdicts"]).keys() & decided(report2["verdicts"]).keys()
    assert {k: report2["verdicts"][k] for k in both} == {k: report["verdicts"][k] for k in both}


# ---------------------------------------------------------------------------
# conjugation


_COORD = re.compile(r"^(-?\d+(?:/\d+)?)(?:\+(-?\d+(?:/\d+)?)\*sqrt3)?$")


def planar(text: str) -> CycloScalar:
    """A report's planar vector "[p+q*sqrt3, r+s*sqrt3]" as x + iy."""
    coords = []
    for part in text.strip("[]").split(", "):
        p, q = _COORD.match(part).groups()
        coords.append(Fraction(p) + Fraction(q or 0) * SQRT3)
    return coords[0] + CYCLO_I * coords[1]


def closure_generators(block) -> list:
    """Vectors whose subgroup is dense in the reported closure of T: its
    lattice basis, and each direction of V with its sqrt3 multiple.  In
    C they are planar vectors x + iy, in C^n points of n of them."""
    shape = block["shape"]
    if "lattice" in block:
        vectors = [tuple(map(planar, v)) for v in block["lattice"]]
        directions = [tuple(map(planar, v)) for v in block["directions"]]
        return vectors + directions + [scaled(SQRT3, d) for d in directions]
    lattice = {"Lattice1": ["generator"], "LineLattice": ["transversal"]}.get(shape, [])
    vectors = [planar(block[k]) for k in lattice] + [planar(b) for b in block.get("basis", [])]
    directions = [planar(block["direction"])] if "direction" in block else []
    if shape == "Plane":
        directions = [CycloScalar.from_int(1), CYCLO_I]
    return vectors + directions + [d * SQRT3 for d in directions]


def scaled(a, w):
    """a * w for a planar vector or a point w."""
    return tuple(a * c for c in w) if isinstance(w, tuple) else a * w


def parsed(texts):
    return as_point([parse_scalar(t) for t in texts])


@settings(max_examples=20)
@given(
    documents(),
    st.sampled_from(["2", "1+i", "zeta12", "3/5+4/5i", "1+zeta12^2"]),
    st.lists(st.sampled_from(["0", "1/3", "1/2+i"]), min_size=2, max_size=2),
)
# a quarter-turn pair in C^2, whose closure of T is a rank-2 lattice
@example(
    (2, [Homothety.with_center(parse_scalar("i"), parsed(c)) for c in (["3/2", "-2/3"], ["0", "3/2"])],
     [["-2", "1"]], 2),
    "1+i", ["1/3", "1/2+i"],
)
def test_conjugation_maps_the_closures(document, alpha_text, beta_texts):
    dim, gens, points, cap = document
    alpha = parse_scalar(alpha_text)
    beta = parsed(beta_texts[:dim])
    phi = Homothety(alpha, beta)
    conjugated = [phi.compose(g).compose(phi.inverse()) for g in gens]
    mapped_points = [[format_scalar(c) for c in phi.apply(parsed(p))] for p in points]
    code, report = classify(to_doc(dim, gens, points, cap))
    code2, report2 = classify(to_doc(dim, conjugated, mapped_points, cap))
    assert answers(code2, report2) == answers(code, report)
    if report is None or "profile" not in report:
        return
    # E_G is mapped by phi
    e, e2 = report["profile"]["invariant_subspace"], report2["profile"]["invariant_subspace"]
    E = AffineSubspace(parsed(e["base"]), tuple(parsed(v) for v in e["basis"]), True)
    E2 = AffineSubspace(parsed(e2["base"]), tuple(parsed(v) for v in e2["basis"]), True)
    assert E2.contains(phi.apply(E.base))
    for v in E.basis:
        assert E2.contains(phi.apply(tuple(b + c for b, c in zip(E.base, v))))
    # the apex of each rotation coset is mapped by phi
    for c, c2 in zip(report["closures"], report2["closures"]):
        if "apex" in c:
            assert parsed(c2["apex"]) == phi.apply(parsed(c["apex"]))
    # the closure of T is mapped by alpha
    t, t2 = report["profile"].get("translation_closure"), report2["profile"].get("translation_closure")
    if t is not None and t["exact"]:
        a = alpha.exact_value
        T = classify_additive_closure(closure_generators(t))
        T2 = classify_additive_closure(closure_generators(t2))
        assert all(T2.contains(scaled(a, w)) for w in closure_generators(t))
        assert all(T.contains(scaled(a.inverse(), w)) for w in closure_generators(t2))


# ---------------------------------------------------------------------------
# verify: soundness agrees across generating lists and conjugates


def verify(doc):
    """(exit code, soundness_pass of each point) of `verify` on the document."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--input", path])
    report = json.loads(out.getvalue())
    return code, [block["evidence"]["soundness_pass"] for block in report["evidence"]]


# (dim, (ratio, centre) of each generator, points): crystallographic groups
# in C and C^2, and a spiral pair in C
VERIFY_EXAMPLES = [
    (1, [("i", ["0"]), ("zeta12^9", ["1"])], [["1/2"]]),
    (1, [("zeta12^4", ["0"]), ("zeta12^8", ["1/3+i"])], [["1"]]),
    (1, [("1+i", ["0"]), ("i", ["1"])], [["1/2"]]),
    (2, [("zeta12^9", ["3/2", "-2/3"]), ("zeta12^9", ["0", "3/2"])], [["-2", "1"], ["-3/2", "0"]]),
    (2, [("i", ["0", "0"]), ("i", ["1", "0"]), ("i", ["0", "1"])], [["1/3", "1/2"]]),
]


@pytest.mark.parametrize("example", VERIFY_EXAMPLES, ids=lambda e: f"C{e[0]}-{e[1][0][0]}")
def test_verify_soundness_agrees_on_other_lists_and_conjugates(example):
    dim, pairs, points = example
    gens = [Homothety.with_center(parse_scalar(r), parsed(c)) for r, c in pairs]
    code, sound = verify(to_doc(dim, gens, points, 6))
    assert sound == [True] * len(points)
    assert verify(to_doc(dim, reversed_list(gens), points, 6)) == (code, sound)
    phi = Homothety(parse_scalar("1+i"), parsed(["1/3", "1/2+i"][:dim]))
    conjugated = [phi.compose(g).compose(phi.inverse()) for g in gens]
    mapped = [[format_scalar(c) for c in phi.apply(parsed(p))] for p in points]
    assert verify(to_doc(dim, conjugated, mapped, 6)) == (code, sound)
