"""Command-line front end: input parsing, report schema, exit codes,
determinism, and the CSV dump path."""

import contextlib
import io
import itertools
import json
import os
import pathlib
import re
import tempfile
import time
import warnings
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from homothety_orbits.cli import (
    EXIT_MALFORMED,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNDECIDABLE,
    EXIT_UNSUPPORTED,
    SCHEMA_ID,
    main,
)
from homothety_orbits import orbit_oracle
from homothety_orbits.affine_maps import Homothety
from homothety_orbits.closure_engine import ClosureDesc, RotationCoset
from homothety_orbits.exact_algebra import parse_scalar
from homothety_orbits.group_profile import GroupSpec, compute_profile

REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "schemas" / "report.schema.json").read_text())


def write_doc(tmp_path, name, doc) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def assert_floats_only(block):
    """An `exact: false` closure block holds its vectors as floats: no
    rational string and no -0.0."""
    assert block["exact"] is False
    for key, value in block.items():
        if key in ("shape", "exact", "evidence"):
            continue
        leaves = [value]
        while any(isinstance(x, list) for x in leaves):
            leaves = [y for x in leaves for y in (x if isinstance(x, list) else [x])]
        assert all(isinstance(x, float) and str(x) != "-0.0" for x in leaves), (key, value)


def quarter_doc(tmp_path, **extra):
    doc = {
        "dim": 1,
        "generators": [
            {"ratio": "i", "center": ["0"]},
            {"ratio": "zeta12^3", "center": ["1"]},
        ],
        **extra,
    }
    return write_doc(tmp_path, "group.json", doc)


# C^2 half-turn centres, as (x, y) pairs, with s = sqrt3 and t = sqrt3*i,
# and the (dim V, rank L) label and exact flag of the closure of T
_S, _T = "zeta12+zeta12^11", "zeta12^2+zeta12^4"
_SQRT3_PLANE = [("0", "0"), ("1", "0"), (_S, "0"), ("i", "0"), (_T, "0")]
C2_HALF_TURN_SHAPES = [
    pytest.param([("0", "0"), ("1", "0")], "V0+L1", True, id="V0+L1"),
    pytest.param([("0", "0"), ("1", "0"), ("0", "1")], "V0+L2", True, id="V0+L2"),
    pytest.param([("0", "0"), ("1", "0"), ("i", "0"), ("0", "1"), ("0", "i")], "V0+L4", True,
                 id="V0+L4"),
    pytest.param([("0", "0"), ("1", "0"), (_S, "0")], "V1+L0", True, id="V1+L0"),
    pytest.param(_SQRT3_PLANE, "V2+L0", True, id="V2+L0"),
    pytest.param(_SQRT3_PLANE + [("0", "1"), ("0", "i")], "V2+L2", True, id="V2+L2"),
    pytest.param(_SQRT3_PLANE + [("0", "1"), ("0", "i"), ("0", _S), ("0", _T)], "V4+L0", True,
                 id="V4+L0"),
    pytest.param([("0", "0"), ("1", "1"), (_S, _S), ("i", "0")], "V1+L1", True, id="V1+L1"),
    pytest.param([("0", "0"), ("0.5", "0"), ("0", "1.5")], "V0+L2", False, id="decimal"),
]

# (centres, translation_closure block) of half-turn groups: every additive
# shape, exact and from decimal data, as the CLI printed it before the six
# shapes became labels of one class; the decimal blocks as the integer
# relations give them, with float values only
HALF_TURN_CLOSURES = [
    pytest.param(["0", "1"], (
        '{"exact": true, "generator": "[2, 0]", "generator_value": [2.0, 0.0], '
        '"shape": "Lattice1"}'), id="Lattice1"),
    pytest.param(["0", "1/2", "1/3"], (
        '{"exact": true, "generator": "[1/3, 0]", '
        '"generator_value": [0.3333333333333333, 0.0], "shape": "Lattice1"}'),
        id="Lattice1-thirds"),
    pytest.param(["0", "1", "zeta12+zeta12^11"], (
        '{"direction": "[1, 0]", "direction_value": [1.0, 0.0], "exact": true, '
        '"shape": "LineDense"}'), id="LineDense"),
    pytest.param(["0", "1", "zeta12+zeta12^11", "i"], (
        '{"direction": "[1/2, 0]", "direction_value": [0.5, 0.0], "exact": true, '
        '"shape": "LineLattice", "transversal": "[0, 2]", "transversal_value": [0.0, 2.0]}'),
        id="LineLattice"),
    pytest.param(["0", "1", "i"], (
        '{"basis": ["[2, 0]", "[0, 2]"], "basis_values": [[2.0, 0.0], [0.0, 2.0]], '
        '"exact": true, "shape": "Lattice2"}'), id="Lattice2"),
    pytest.param(["0", "0.5"], (
        '{"evidence": {"height": 1, "path": "relations", "residual": 0.0}, "exact": false, '
        '"generator_value": [1.0, 0.0], "shape": "Lattice1"}'),
        id="decimal-Lattice1"),
    pytest.param(["0", "0.3", "1"], (
        '{"evidence": {"height": 5, "path": "relations", "residual": 0.0}, "exact": false, '
        '"generator_value": [0.2, 0.0], "shape": "Lattice1"}'),
        id="decimal-Lattice1-fifths"),
    pytest.param(["0", "1", "1.7320508075688772"], (
        '{"direction_value": [1.0, 0.0], '
        '"evidence": {"height": 1, "path": "relations", "residual": 0.0}, "exact": false, '
        '"shape": "LineDense"}'), id="decimal-LineDense"),
    pytest.param(["0", "1", "1.7320508075688772", "i"], (
        '{"direction_value": [1.0, 0.0], '
        '"evidence": {"height": 1, "path": "relations", "residual": 0.0}, '
        '"exact": false, "shape": "LineLattice", "transversal_value": [0.0, 2.0]}'),
        id="decimal-LineLattice"),
    pytest.param(["0", "1", "0.5i"], (
        '{"basis_values": [[0.0, 1.0], [2.0, 0.0]], '
        '"evidence": {"height": 1, "path": "relations", "residual": 0.0}, "exact": false, '
        '"shape": "Lattice2"}'), id="decimal-Lattice2"),
]


class TestClassify:
    def test_report_is_schema_valid(self, tmp_path, capsys):
        path = quarter_doc(tmp_path, points=[["1/2"]])
        assert main(["classify", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["schema"] == SCHEMA_ID
        assert report["status"] == "ok"
        assert report["closures"][0]["kind"] == "RotationCoset"
        assert report["profile"]["sr_membership"] == "S2"
        assert report["verdicts"]["all_orbits_closed_discrete"] == "yes"

    def test_output_is_byte_identical_across_runs(self, tmp_path, capsys):
        path = quarter_doc(tmp_path, points=[["1/2"]])
        outs = []
        for d in ("a", "b"):
            out_dir = tmp_path / d
            assert main(["classify", "--input", path, "--out", str(out_dir)]) == EXIT_OK
            printed = capsys.readouterr().out.strip()
            assert printed == str(out_dir / "report.json")
            outs.append((out_dir / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_extra_point_and_window_flags(self, tmp_path, capsys):
        path = quarter_doc(tmp_path)
        code = main([
            "classify", "--input", path, "--point", "1/2", "--window", "0:1.5",
        ])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert ["1/2"] in report["points"]
        assert report["options"]["window"] == {"center": ["0"], "half": 1.5}

    def test_parser_state_does_not_leak_between_calls(self, tmp_path, capsys):
        # one parser serves every call in a process: the --point list of one
        # call must not reach the next, and a bad option still exits 2
        path = quarter_doc(tmp_path, points=[["1/2"]])
        assert main(["classify", "--input", path, "--point", "1/3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["points"] == [["1/2"], ["1/3"]]
        assert main(["classify", "--input", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["points"] == [["1/2"]]
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--input", path, "--no-such-option"])
        assert exc.value.code == 2
        assert "--no-such-option" in capsys.readouterr().err

    def test_values_with_a_leading_minus_sign(self, tmp_path, capsys):
        # a separate value "-1/2" is not read as an option: the spaced form
        # and the --point= form give the same report
        path = quarter_doc(tmp_path)
        spaced = main(["verify", "--input", path, "--word-cap", "4",
                       "--point", "-1/2", "--window", "-1:2"])
        spaced_out = capsys.readouterr().out
        joined = main(["verify", "--input", path, "--word-cap", "4",
                       "--point=-1/2", "--window=-1:2"])
        assert spaced == joined == EXIT_OK
        assert spaced_out == capsys.readouterr().out
        report = json.loads(spaced_out)
        assert ["-1/2"] in report["points"]
        assert report["options"]["window"] == {"center": ["-1"], "half": 2.0}

    def test_explicit_flags_override_document_options(self, tmp_path, capsys):
        # flags given at their default values still win over the document
        path = quarter_doc(tmp_path, options={"grid": 10, "eps": 1e-6, "window": 3.0})
        assert main(["classify", "--input", path]) == EXIT_OK
        opts = json.loads(capsys.readouterr().out)["options"]
        assert (opts["grid"], opts["eps"], opts["window"]["half"]) == (10, 1e-6, 3.0)
        assert main([
            "classify", "--input", path, "--grid", "40", "--eps", "1e-9", "--window", "2.0",
        ]) == EXIT_OK
        opts = json.loads(capsys.readouterr().out)["options"]
        assert (opts["grid"], opts["eps"], opts["window"]["half"]) == (40, 1e-9, 2.0)

    def test_real_ratio_group_exits_unsupported(self, tmp_path, capsys):
        path = write_doc(tmp_path, "real.json", {
            "dim": 1,
            "generators": [
                {"ratio": "2", "center": ["0"]},
                {"ratio": "3", "center": ["1"]},
            ],
        })
        assert main(["classify", "--input", path]) == EXIT_UNSUPPORTED
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["status"] == "unsupported"
        assert report["closures"][0]["kind"] == "Unsupported"

    def test_unresolvable_ratio_exits_undecidable(self, tmp_path, capsys):
        path = write_doc(tmp_path, "undec.json", {
            "dim": 1,
            "generators": [
                {"ratio": "exp(i*1.5707963267948966)", "center": ["0"]},
                {"ratio": "exp(i*1.5707963267948966)", "center": ["1"]},
            ],
        })
        assert main(["classify", "--input", path]) == EXIT_UNDECIDABLE
        assert "undecidable" in capsys.readouterr().err

    @pytest.mark.parametrize("gens, exact_form", [
        ([("2.0", "1+i"), ("i", "1/3-i")], [("2", "1+i"), ("i", "1/3-i")]),
        ([("i", "1/3-i"), ("2.0", "1+i")], [("i", "1/3-i"), ("2", "1+i")]),
        ([("2.0", "1+i"), ("exp(i*1.0)", "1/3-i")], None),
    ])
    def test_one_ratio_settles_a_flag_for_the_group(self, tmp_path, capsys, gens, exact_form):
        # whether 2.0 is real is unresolved, but i (or exp(i*1.0)) is
        # provably non-real and off the 6th roots, and 2.0 is provably off
        # the 4th roots: every flag is settled by some ratio
        def classify(pairs):
            path = write_doc(tmp_path, "flags.json", {
                "dim": 1, "generators": [{"ratio": r, "center": [c]} for r, c in pairs],
            })
            assert main(["classify", "--input", path]) == EXIT_OK
            report = json.loads(capsys.readouterr().out)
            profile = report["profile"]
            assert (profile["has_nonreal_ratio"], profile["outside_SR"]) == (True, True)
            return {k: v for k, v in report["verdicts"].items() if k != "notes"}

        verdicts = classify(gens)
        assert verdicts["has_dense_orbit"] == "yes"
        if exact_form is not None:
            assert verdicts == classify(exact_form)

    def test_a_flag_no_ratio_settles_stays_undecidable(self, tmp_path, capsys):
        # i is a 4th root and -1.0 may be one: nothing settles the S2 flag
        path = write_doc(tmp_path, "undec.json", {
            "dim": 1,
            "generators": [
                {"ratio": "-1.0", "center": ["3/2"]},
                {"ratio": "i", "center": ["1+1/2i"]},
            ],
        })
        assert main(["classify", "--input", path]) == EXIT_UNDECIDABLE
        assert "4th roots" in capsys.readouterr().err


    def test_hyperplane_E_and_a_plane_filling_ratio_group_give_whole_space(
        self, tmp_path, capsys
    ):
        # E is the line z2 = 0, and 3/5+4/5i (modulus 1, not a root of
        # unity) with 2 and 3 generate a dense subgroup of C*: every orbit
        # off E is dense (Cor1.4(3)(ii))
        path = write_doc(tmp_path, "hyperplane.json", {
            "dim": 2,
            "generators": [
                {"ratio": "3/5+4/5i", "center": ["0", "0"]},
                {"ratio": "2", "center": ["1", "0"]},
                {"ratio": "3", "center": ["2", "0"]},
            ],
            "points": [["0", "1"]],
        })
        assert main(["classify", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["verdicts"]["has_dense_orbit"] == "yes"
        assert report["profile"]["exact"] is True
        assert report["profile"]["lambda_closure"]["shape"] == "Plane"
        closure = report["closures"][0]
        assert closure["kind"] == "WholeSpace"
        assert closure["provenance"] == "Thm1.1(1)(ii)"
        assert closure["exact"] is True

    def test_undecided_ratio_closure_of_exact_inputs_gives_its_reason(
        self, tmp_path, capsys
    ):
        # |2+i|^2 = 5 and 3 have independent moduli and arg(2+i) / pi is
        # irrational: a four-exponentials case, not an approximate input
        path = write_doc(tmp_path, "four_exp.json", {
            "dim": 1,
            "generators": [
                {"ratio": "2+i", "center": ["0"]},
                {"ratio": "3", "center": ["1"]},
            ],
            "points": [["1/2"]],
        })
        assert main(["classify", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        lam = report["profile"]["lambda_closure"]
        assert (lam["shape"], lam["exact"]) == ("Unknown", False)
        notes = report["verdicts"]["notes"]
        assert not any("approximate inputs" in n for n in notes)
        (note,) = [n for n in notes if "ratio closure is undecided" in n]
        assert note.startswith("exact inputs")
        assert "four-exponentials" in note

    def test_decimal_spiral_in_c2_gives_the_verdicts_of_its_exact_form(self, tmp_path, capsys):
        # 1.5+0.5i and i: the integer relations among (log|w|, arg w / 2pi)
        # find the discrete rays of the exact form, so E_G (a hyperplane)
        # gives no dense orbit
        reports = []
        for spiral, y in (("1.5+0.5i", "0.5"), ("3/2+1/2i", "1/2")):
            path = write_doc(tmp_path, "spiral.json", {
                "dim": 2,
                "generators": [
                    {"ratio": spiral, "center": ["0", "0"]},
                    {"ratio": "i", "center": ["1", y]},
                ],
                "points": [["1/2", "1"]],
            })
            assert main(["classify", "--input", path]) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out))
        decimal, exact = reports
        lam = decimal["profile"]["lambda_closure"]
        assert (lam["shape"], lam["exact"], lam["root_order"]) == ("RaysDiscrete", False, 4)
        assert exact["profile"]["lambda_closure"]["shape"] == "RaysDiscrete"
        assert decimal["verdicts"]["has_dense_orbit"] == "no"
        decimal["verdicts"]["notes"] = exact["verdicts"]["notes"]
        assert decimal["verdicts"] == exact["verdicts"]

    def test_a_spiral_line_in_c2_is_no_dense_closure(self, tmp_path, capsys):
        # 2e^i and 2^sqrt2 e^(i sqrt2): the rows (log 2, 1/2pi) and sqrt2
        # times it close to a line off both axes, one logarithmic spiral,
        # so E_G (a hyperplane) gives no dense orbit, and every orbit point
        # of the cone is near it
        path = write_doc(tmp_path, "spiral.json", {
            "dim": 2,
            "generators": [
                {"ratio": "2*exp(i*1.0)", "center": ["0", "0"]},
                {"ratio": "2.665144142690225*exp(i*1.4142135623730951)", "center": ["1", "0.5"]},
            ],
            "points": [["0.5", "1"]],
        })
        assert main(["verify", "--input", path, "--word-cap", "6", "--grid", "8"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        lam = report["profile"]["lambda_closure"]
        assert (lam["shape"], lam["arms"], lam["exact"]) == ("Spirals", 1, False)
        assert report["verdicts"]["has_dense_orbit"] == "no"
        assert report["evidence"][0]["evidence"]["soundness_pass"]

    def test_decimal_centre_gives_the_lattice_of_its_exact_form(self, tmp_path, capsys):
        # with the third centre written 3/10 the exact path gives Lattice2
        # with basis 1/5, i/5; the integer relations among the decimal
        # translations find the same lattice, and claims on it verify
        path = write_doc(tmp_path, "decimal.json", {
            "dim": 1,
            "generators": [
                {"ratio": "i", "center": ["0"]},
                {"ratio": "i", "center": ["1"]},
                {"ratio": "-1", "center": ["0.3"]},
            ],
            "points": [["0"]],
        })
        assert main(["classify", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        block = report["profile"]["translation_closure"]
        assert (block["shape"], block["exact"]) == ("Lattice2", False)
        assert block["evidence"]["path"] == "relations"
        assert_floats_only(block)
        assert sorted(block["basis_values"]) == [
            pytest.approx([0.0, 0.2], abs=1e-12), pytest.approx([0.2, 0.0], abs=1e-12)
        ]
        assert report["verdicts"]["has_dense_orbit"] == "unknown"
        assert main(["verify", "--input", path, "--word-cap", "8"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert [b["evidence"]["soundness_pass"] for b in report["evidence"]] == [True]

    @pytest.mark.parametrize("centres, block", HALF_TURN_CLOSURES)
    def test_translation_closure_block_of_each_shape(self, tmp_path, capsys, centres, block):
        # half-turns about the centres: T is generated by twice the centre
        # differences, and every ratio is real, so the group is unsupported
        path = write_doc(tmp_path, "half_turns.json", {
            "dim": 1,
            "generators": [{"ratio": "-1", "center": [c]} for c in centres],
            "points": [["1/7"]],
        })
        assert main(["classify", "--input", path]) == EXIT_UNSUPPORTED
        report = json.loads(capsys.readouterr().out)
        actual, block = report["profile"]["translation_closure"], json.loads(block)
        if block["exact"]:
            assert actual == block
            return
        # the decimal blocks hold the relations' floats, pinned to 1e-12
        assert_floats_only(actual)
        assert actual.keys() == block.keys()
        for key, value in block.items():
            if key == "basis_values":
                value = [pytest.approx(b, abs=1e-12) for b in value]
            elif key.endswith("_value"):
                value = pytest.approx(value, abs=1e-12)
            assert actual[key] == value

    @pytest.mark.parametrize("centres, shape, exact", C2_HALF_TURN_SHAPES)
    def test_translation_closure_in_c2(self, tmp_path, capsys, centres, shape, exact):
        # half-turns about the centres, as on the additive-c2 line of
        # scripts/report_digest.py: their ratios are real, so the verdicts
        # stay open (Remark 1.5), and quarter-turns about the same centres
        # check that the verdicts follow (dim V, rank L)
        for ratio in ("-1", "i"):
            path = write_doc(tmp_path, "c2.json", {
                "dim": 2,
                "generators": [{"ratio": ratio, "center": list(c)} for c in centres],
                "points": [["1/7", "1/7"]],
            })
            code = main(["classify", "--input", path])
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, SCHEMA)
            block, verdicts = report["profile"]["translation_closure"], report["verdicts"]
            spec = GroupSpec(2, tuple(
                Homothety.with_center(parse_scalar(ratio), [parse_scalar(x) for x in c])
                for c in centres
            ))
            profile = compute_profile(spec)
            closure = profile.g1_closure
            assert closure.to_report() == block
            assert all(closure.contains(t) for t in profile.schreier.shifts)
            dim_v, rank_l = len(closure.directions), len(closure.lattice)
            assert block["shape"] == f"V{dim_v}+L{rank_l}"
            if not block["exact"]:
                assert_floats_only(block)
            if ratio == "-1":
                assert code == EXIT_UNSUPPORTED
                assert (block["shape"], block["exact"]) == (shape, exact)
            if ratio == "-1" or not block["exact"]:
                assert verdicts["has_dense_orbit"] == "unknown"
                assert verdicts["all_orbits_closed_discrete"] == "unknown"
            else:
                assert verdicts["has_dense_orbit"] == ("yes" if block["shape"] == "V4+L0" else "no")
                assert verdicts["all_orbits_closed_discrete"] == ("yes" if dim_v == 0 else "no")
            if block["exact"] and dim_v == 0:
                # half of a shortest lattice vector is not in the lattice
                zero = parse_scalar("0").exact_value
                vectors = [
                    tuple(sum((k * b[j] for k, b in zip(ks, closure.lattice)), zero) for j in range(2))
                    for ks in itertools.product(range(-2, 3), repeat=rank_l) if any(ks)
                ]
                shortest = min(vectors, key=lambda v: sum(abs(c.to_complex()) ** 2 for c in v))
                assert closure.contains(shortest)
                assert not closure.contains(tuple(c / 2 for c in shortest))


    def test_decimal_quarter_turns_in_c2_give_the_shape_of_the_exact_form(self, tmp_path, capsys):
        # quarter-turns about (0, 0), (1/2, 0), (0, 3/2), written as decimals
        # and as fractions: the same lattice, claimed exactly only from the
        # fractions, so the decimal verdicts stay open (the half-turns are
        # the "decimal" row of C2_HALF_TURN_SHAPES)
        ratio, shape = "i", "V0+L4"
        reports = []
        for half, three_halves in (("0.5", "1.5"), ("1/2", "3/2")):
            path = write_doc(tmp_path, "c2.json", {
                "dim": 2,
                "generators": [
                    {"ratio": ratio, "center": c}
                    for c in (["0", "0"], [half, "0"], ["0", three_halves])
                ],
                "points": [["1/7", "1/7"]],
            })
            main(["classify", "--input", path])
            reports.append(json.loads(capsys.readouterr().out))
        decimal, exact = reports
        jsonschema.validate(decimal, SCHEMA)
        block = decimal["profile"]["translation_closure"]
        assert (block["shape"], block["exact"]) == (shape, False)
        assert block["evidence"]["path"] == "relations"
        assert exact["profile"]["translation_closure"]["shape"] == shape
        assert decimal["verdicts"]["has_dense_orbit"] == "unknown"
        assert decimal["verdicts"]["all_orbits_closed_discrete"] == "unknown"


class TestMalformedInput:
    def test_exit_codes(self, tmp_path, capsys):
        bad_json = tmp_path / "bad.json"
        bad_json.write_text("{not json")
        cases = [
            ["classify", "--input", str(bad_json)],
            ["classify", "--input", str(tmp_path / "missing.json")],
            ["classify"],  # --input is required for classify
        ]
        for argv in cases:
            assert main(argv) == EXIT_MALFORMED
            assert "malformed input" in capsys.readouterr().err

    def test_generator_validation(self, tmp_path, capsys):
        docs = [
            # both center and translation
            {"dim": 1, "generators": [
                {"ratio": "i", "center": ["0"], "translation": ["1"]},
                {"ratio": "i", "center": ["1"]},
            ]},
            # a translation whose ratio is not 1
            {"dim": 1, "generators": [
                {"ratio": "2", "translation": ["1"]},
                {"ratio": "i", "center": ["1"]},
            ]},
            # point dimension mismatch
            {"dim": 1, "generators": [
                {"ratio": "i", "center": ["0"]},
                {"ratio": "i", "center": ["1"]},
            ], "points": [["0", "0"]]},
        ]
        for k, doc in enumerate(docs):
            path = write_doc(tmp_path, f"bad{k}.json", doc)
            assert main(["classify", "--input", path]) == EXIT_MALFORMED
            assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["0", "0.0", "1e-300"])
    def test_zero_ratio_is_rejected(self, tmp_path, capsys, ratio):
        # ratio 0 (or a decimal within its error radius of 0) is not a
        # homothety: a message and exit 1, never a traceback
        path = write_doc(tmp_path, "zero.json", {
            "dim": 1,
            "generators": [
                {"ratio": ratio, "center": ["0"]},
                {"ratio": "i", "center": ["1"]},
            ],
        })
        assert main(["classify", "--input", path]) == EXIT_MALFORMED
        assert "ratio 0" in capsys.readouterr().err

    @pytest.mark.parametrize("generator", [
        {"ratio": "1/0", "center": ["0"]},
        {"ratio": "exp(i*pi*1/0)", "center": ["0"]},
        {"ratio": "exp(i*1/0)", "center": ["0"]},
        {"ratio": "i", "center": ["1/0"]},
    ])
    def test_zero_denominator_is_a_parse_error(self, tmp_path, capsys, generator):
        path = write_doc(tmp_path, "zero-den.json", {
            "dim": 1, "generators": [generator, {"ratio": "i", "center": ["1"]}],
        })
        for command in ("classify", "verify"):
            assert main([command, "--input", path]) == EXIT_MALFORMED
            assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize("options, flags", [
        ({"grid": 0}, []),
        ({"grid": 1}, []),
        ({"window": -1}, []),
        ({"window": 0}, []),
        ({"window": {"half": float("nan")}}, []),
        ({"eps": 0}, []),
        ({"eps": float("nan")}, []),
        ({"word_cap": -1}, []),
        ({}, ["--eps", "nan"]),
        ({}, ["--window", "nan"]),
        ({}, ["--window", "0,0:inf"]),
        ({}, ["--grid", "1"]),
    ])
    def test_run_options_are_checked_after_merging(self, tmp_path, capsys, options, flags):
        # document options and flags pass one gate: grid >= 2, a finite
        # positive window half-width and eps, a nonnegative word cap
        path = quarter_doc(tmp_path, options=options)
        for command in ("classify", "verify"):
            assert main([command, "--input", path, *flags]) == EXIT_MALFORMED
            assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"options": {"eps": True}}, "'options.eps' must be a number, not true"),
        ({"options": {"word_cap": True}}, "'options.word_cap' must be a number, not true"),
        ({"options": {"word_cap": 2.5}}, "'options.word_cap' must be an integer, not 2.5"),
        ({"options": {"word_cap": float("inf")}}, "'options.word_cap' must be an integer, not inf"),
        ({"options": {"grid": True}}, "'options.grid' must be a number, not true"),
        ({"options": {"grid": 2.5}}, "'options.grid' must be an integer, not 2.5"),
        ({"options": {"window": True}}, "'options.window' must be a number, not true"),
        ({"options": {"window": {"half": False}}}, "'options.window.half' must be a number, not false"),
        ({"dim": True}, "'dim' must be a positive integer"),
    ])
    def test_booleans_and_fractions_are_not_coerced(self, tmp_path, capsys, extra, message):
        # a JSON boolean was read as 1 or 0, a fractional cap or grid was
        # truncated, and an infinite cap raised OverflowError
        path = quarter_doc(tmp_path, **extra)
        for command in ("classify", "verify"):
            assert main([command, "--input", path]) == EXIT_MALFORMED
            assert message in capsys.readouterr().err

    def test_integral_float_options_are_integers(self, tmp_path, capsys):
        path = quarter_doc(tmp_path, options={"word_cap": 3.0, "grid": 8.0})
        assert main(["classify", "--input", path]) == EXIT_OK
        options = json.loads(capsys.readouterr().out)["options"]
        assert (options["word_cap"], options["grid"]) == (3, 8)

    def test_commuting_generators_are_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, "abelian.json", {
            "dim": 1,
            "generators": [
                {"ratio": "2i", "center": ["0"]},
                {"ratio": "3i", "center": ["0"]},
            ],
        })
        assert main(["classify", "--input", path]) == EXIT_MALFORMED
        assert "abelian" in capsys.readouterr().err

    def test_exact_policy_rejects_decimals(self, tmp_path, capsys):
        path = write_doc(tmp_path, "approx.json", {
            "dim": 1,
            "generators": [
                {"ratio": "i", "center": ["0"]},
                {"ratio": "i", "center": ["0.5"]},
            ],
        })
        assert main(["classify", "--input", path, "--exact"]) == EXIT_MALFORMED
        assert "approximate" in capsys.readouterr().err
        # without the flag the same input is fine
        assert main(["classify", "--input", path]) == EXIT_OK
        capsys.readouterr()


class TestOrbit:
    def test_word_cap_zero_gives_a_single_row(self, tmp_path, capsys):
        path = quarter_doc(tmp_path)
        assert main(["orbit", "--input", path, "--word-cap", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "re(z1),im(z1),generation\n0.0,0.0,0\n"

    def test_the_point_flag_names_the_orbit(self, tmp_path, capsys):
        # {i@0, i@1} with the points [0, -i, i]: --point i enumerates the
        # orbit of i, not of the document's first point
        path = write_doc(tmp_path, "points.json", {
            "dim": 1,
            "generators": [{"ratio": "i", "center": ["0"]}, {"ratio": "i", "center": ["1"]}],
            "points": [["0"], ["-i"], ["i"]],
        })
        assert main(["orbit", "--input", path, "--word-cap", "1", "--point", "i"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "0.0,1.0,0"
        assert main(["orbit", "--input", path, "--word-cap", "1"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "0.0,0.0,0"

    def test_csv_file_output(self, tmp_path, capsys):
        path = quarter_doc(tmp_path)
        out_dir = tmp_path / "run"
        code = main([
            "orbit", "--input", path, "--word-cap", "4", "--out", str(out_dir),
        ])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == str(out_dir / "orbit.csv")
        lines = (out_dir / "orbit.csv").read_text().splitlines()
        assert lines[0] == "re(z1),im(z1),generation"
        assert len(lines) > 2

    def test_a_grid_orbit_past_float_range_exits_undecidable(self, tmp_path, capsys):
        # {1e200@(0,0), exp(i)@(1,0.5)} from (0.5, 1): by word length 2 the
        # grid search meets points past float range; they once passed as
        # CSV rows of inf and nan, exit 0, after numpy overflow warnings
        path = write_doc(tmp_path, "big.json", {
            "dim": 2,
            "generators": [
                {"ratio": "1e200", "center": ["0", "0"]},
                {"ratio": "exp(i*1.0)", "center": ["1", "0.5"]},
            ],
            "points": [["0.5", "1"]],
            "options": {"word_cap": 6},
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["orbit", "--input", path]) == EXIT_UNDECIDABLE
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "past float range" in captured.err


class TestVerify:
    def test_discrete_pair_verifies_clean(self, tmp_path, capsys):
        path = quarter_doc(tmp_path, points=[["0"]])
        assert main(["verify", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["status"] == "ok"
        assert report["failures"] == []
        ev = report["evidence"][0]["evidence"]
        assert ev["soundness_pass"] and ev["discreteness_pass"]
        assert ev["exact_membership"] and ev["max_violation"] == 0.0

    def test_undersampled_dense_claim_is_a_loud_mismatch(self, tmp_path, capsys):
        # a whole-plane claim checked at a tiny word cap cannot show enough
        # fill; the command must exit with the verification-mismatch code
        path = write_doc(tmp_path, "mixed.json", {
            "dim": 1,
            "generators": [
                {"ratio": "i", "center": ["0"]},
                {"ratio": "zeta12^2", "center": ["1"]},
            ],
        })
        code = main(["verify", "--input", path, "--word-cap", "6"])
        assert code == EXIT_MISMATCH
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert report["status"] == "verification-mismatch"
        assert any("density" in f for f in report["failures"])

    @pytest.mark.parametrize("command", ["verify", "orbit"])
    def test_orbit_past_float_range_exits_undecidable(self, tmp_path, capsys, command):
        # {10^39@0, i@1} from 1/2: at word cap 9 an exact orbit point passes
        # float range; it once ended in an OverflowError traceback
        path = write_doc(tmp_path, "huge.json", {
            "dim": 1,
            "generators": [
                {"ratio": "1" + "0" * 39, "center": ["0"]},
                {"ratio": "i", "center": ["1"]},
            ],
            "points": [["1/2"]],
            "options": {"word_cap": 9},
        })
        assert main([command, "--input", path]) == EXIT_UNDECIDABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beyond float range" in captured.err

    @pytest.mark.parametrize("ratio", ["1e200", "1e100*exp(i*1.0)"])
    def test_a_harvest_past_float_range_exits_undecidable(self, tmp_path, capsys, ratio):
        # the grid enumeration of {ratio@(0,0), exp(i)@(1,0.5)} passes float
        # range before the approach sample reads the harvest (whose
        # translation of inf or nan once raised a ValueError as a key,
        # reported as malformed input; see test_orbit_oracle)
        path = write_doc(tmp_path, "big.json", {
            "dim": 2,
            "generators": [
                {"ratio": ratio, "center": ["0", "0"]},
                {"ratio": "exp(i*1.0)", "center": ["1", "0.5"]},
            ],
            "points": [["0.5", "1"]],
            "options": {"word_cap": 6, "grid": 4},
        })
        assert main(["verify", "--input", path]) == EXIT_UNDECIDABLE
        assert "past float range" in capsys.readouterr().err

    def test_verify_reads_the_harvest_only_as_deep_as_its_samples(self, tmp_path, capsys):
        # {zeta12@0, zeta12@1} from two points: each WholeSpace sample takes
        # 23 harvested translations, all from words of length <= 4, so the
        # map search of the harvest (to length 10) stops at level 4
        levels = []
        search = orbit_oracle._row_levels

        def recorded(start, letters, L, cap):
            harvest = len(start) == 9  # a map state [ratio | shift] on C
            for level, rows, stopped in search(start, letters, L, cap):
                if harvest:
                    levels.append(level)
                yield level, rows, stopped

        path = write_doc(tmp_path, "twelfth.json", {
            "dim": 1,
            "generators": [
                {"ratio": "zeta12", "center": ["0"]},
                {"ratio": "zeta12", "center": ["1"]},
            ],
            "points": [["1/3"], ["1/2+1/3i"]],
            "options": {"word_cap": 10},
        })
        with mock.patch.object(orbit_oracle, "_row_levels", recorded):
            assert main(["verify", "--input", path]) in (EXIT_OK, EXIT_MISMATCH)
        report = json.loads(capsys.readouterr().out)
        assert [e["evidence"]["approach_points"] for e in report["evidence"]] == [24, 24]
        assert levels and max(levels) <= 4

    def test_dim_4_spiral_verifies_quickly(self, tmp_path, capsys):
        # an irrational-angle ratio in C^4: 4^8 window cells are traced
        # against the closure of Lambda, a discrete spiral; measured against
        # 40,000 sampled ratios, the trace once took about 20 s
        path = write_doc(tmp_path, "dim4.json", {
            "dim": 4,
            "generators": [
                {"ratio": "-exp(i*3.0)*7/2i", "center": ["0", "0", "0", "0"]},
                {"ratio": "i", "center": ["1", "0", "1/2", "0"]},
            ],
            "points": [["1/3", "1", "0", "1/2"]],
        })
        start = time.perf_counter()
        assert main(["verify", "--input", path, "--word-cap", "3", "--grid", "4"]) == EXIT_OK
        assert time.perf_counter() - start < 10.0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        lam = report["closures"][0]["lambda_closure"]
        assert (lam["shape"], lam["exact"]) == ("RaysDiscrete", False)

    @pytest.mark.parametrize("cap", [6, 10, 14])
    def test_c2_quarter_turn_pair_is_sound_at_every_word_cap(
        self, tmp_path, capsys, cap
    ):
        # the translation subgroup of this pair spans directions that short
        # words miss; its membership test must not depend on the word cap
        path = write_doc(tmp_path, "c2.json", {
            "dim": 2,
            "generators": [
                {"ratio": "zeta12^9", "center": ["3/2", "-2/3"]},
                {"ratio": "zeta12^9", "center": ["0", "3/2"]},
            ],
            "points": [["-2", "1"], ["-3/2", "0"], ["-1", "2"], ["-3", "-2/3"]],
        })
        assert main(["verify", "--input", path, "--word-cap", str(cap)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == []
        for block in report["evidence"]:
            assert block["evidence"]["soundness_pass"]
            assert block["evidence"]["max_violation"] <= 1e-12

    def test_c2_quarter_turn_pair_verifies_exactly(self, tmp_path, capsys, monkeypatch):
        # the C^2 reproducer of perfbench/workloads.py: the closure of T is
        # classified exactly, so every point's membership is the integer
        # test on the lift and never the point-by-point path
        path = write_doc(tmp_path, "c2.json", {
            "dim": 2,
            "generators": [
                {"ratio": "zeta12^9", "center": ["3/2", "-2/3"]},
                {"ratio": "zeta12^9", "center": ["0", "3/2"]},
            ],
            "points": [["-2", "1"], ["-3/2", "0"], ["-1", "2"], ["-3", "-2/3"]],
            "options": {"word_cap": 10},
        })

        def point_by_point(*args, **kwargs):
            raise AssertionError("point-by-point membership")

        monkeypatch.setattr(ClosureDesc, "contains", point_by_point)
        monkeypatch.setattr(ClosureDesc, "contains_rows", point_by_point)
        monkeypatch.setattr(RotationCoset, "contains", point_by_point)
        assert main(["verify", "--input", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SCHEMA)
        assert [c["exact"] for c in report["closures"]] == [True] * 4
        assert [b["evidence"]["soundness_pass"] for b in report["evidence"]] == [True] * 4
        assert all(b["evidence"]["exact_membership"] for b in report["evidence"])
        assert report["verdicts"]["all_orbits_closed_discrete"] == "yes"
        assert report["verdicts"]["has_dense_orbit"] == "no"


# ---------------------------------------------------------------------------
# the README quick start


def readme_quick_start_blocks():
    """The JSON blocks of the README's quick start: the group document, the
    closure block and the verdict block."""
    text = (REPO / "README.md").read_text()
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]


def assert_readme_subset(got: dict, want: dict, where: str) -> None:
    """`want` holds a subset of `got`'s keys, nested blocks included; a list
    that ends in "..." stands for the lists it begins."""
    for key, value in want.items():
        if isinstance(value, dict):
            assert_readme_subset(got.get(key) or {}, value, f"{where}.{key}")
        elif isinstance(value, list) and value[-1:] == ["..."]:
            assert got.get(key, [])[: len(value) - 1] == value[:-1], f"{where}.{key}"
        else:
            assert got.get(key) == value, f"{where}.{key}"


class TestReadmeQuickStart:
    def test_classify_prints_the_readme_blocks(self, tmp_path, capsys):
        doc, closure, verdicts = readme_quick_start_blocks()
        assert main(["classify", "--input", write_doc(tmp_path, "group.json", doc)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert_readme_subset(report["closures"][0], closure, "closure")
        assert_readme_subset(report["verdicts"], verdicts, "verdicts")

    def test_verify_holds_the_readme_claims(self, tmp_path, capsys):
        # the README's prose after the verdict block: max_violation 0.0,
        # exact_membership true, min_gap 0.707... stable across
        # generations, exit code 0
        doc = readme_quick_start_blocks()[0]
        path = write_doc(tmp_path, "group.json", doc)
        assert main(["verify", "--input", path, "--word-cap", "10"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == []
        ev = report["evidence"][0]["evidence"]
        assert ev["max_violation"] == 0.0 and ev["exact_membership"] is True
        assert ev["discreteness_pass"] is True
        assert ev["min_gap"] == pytest.approx(0.5 ** 0.5, abs=1e-9)
        assert {gap for _, gap in ev["min_gap_history"]} == {ev["min_gap"]}


# keys of the lattice sandwich that reports no longer carry
def _sandwich_keys(block) -> list:
    if isinstance(block, list):
        return [k for item in block for k in _sandwich_keys(item)]
    if not isinstance(block, dict):
        return []
    own = [k for k in block if k.startswith("g1_") or k in ("pinned", "g1_unstable")]
    return own + [k for value in block.values() for k in _sandwich_keys(value)]


@pytest.mark.parametrize("command", [["classify"], ["verify", "--word-cap", "6"]])
@pytest.mark.parametrize("gens", [
    pytest.param([("i", "0"), ("zeta12^3", "1")], id="quarter-pair"),
    pytest.param([("zeta12^2", "0"), ("zeta12^2", "0.3")], id="decimal-sixth-pair"),
    pytest.param([("i", "0"), ("i", "1"), ("-1", "3/10")], id="three-rotations"),
    pytest.param([("zeta12", "0"), ("zeta12", "1")], id="order-twelve-pair"),
    pytest.param([("1.5+0.5i", "0"), ("i", "1")], id="spiral"),
])
def test_no_report_carries_a_sandwich_pin_key(tmp_path, capsys, command, gens):
    doc = {"dim": 1, "generators": [{"ratio": r, "center": [c]} for r, c in gens],
           "points": [["1/3"]]}
    code = main([*command, "--input", write_doc(tmp_path, "group.json", doc)])
    assert code in (EXIT_OK, EXIT_MISMATCH)
    assert _sandwich_keys(json.loads(capsys.readouterr().out)) == []


# ---------------------------------------------------------------------------
# input-grammar fuzzer: every document ends in an exit code, never a
# traceback

fuzz_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
# factors of the scalar grammar: exact, then approximate
fuzz_factors = st.one_of(
    st.sampled_from(["i", "-i", "zeta12", "2", "1/2"]),
    fuzz_fractions.map(str),
    fuzz_fractions.map(lambda q: f"{q}i"),
    st.integers(-30, 30).map(lambda k: f"zeta12^{k}"),
    st.tuples(st.integers(-13, 13), st.integers(1, 7)).map(lambda p: f"exp(i*pi*{p[0]}/{p[1]})"),
    st.integers(-20, 20).map(lambda k: f"{k / 8}"),
    # decimals whose exact forms are rational or in Q(sqrt3), for the
    # integer relations among the translations
    st.sampled_from(["0.3", "1.7320508075688772", "-2.5"]),
    st.integers(-30, 30).map(lambda k: f"exp(i*{k / 10})"),
)
fuzz_scalars = st.builds(
    lambda sign, head, tail: sign + head + "".join(op + f for op, f in tail),
    st.sampled_from(["", "-"]),
    fuzz_factors,
    st.lists(st.tuples(st.sampled_from("+-*"), fuzz_factors), max_size=1),
)
BAD_SCALARS = ["", "x", "1/0", "exp(i*)", "exp(i*pi*1/0)", "1//2", "zeta12^x", "2+", "0",
               "1e300", "1e-300", "(1"]
# a JSON value where the grammar wants something else
fuzz_junk = st.sampled_from([None, True, -1, 0, 2.5, "x", "", [], {}, [1], {"a": 1}])
DEFECTS = ["json", "top", "dim", "generators", "generator", "scalar", "coords", "option",
           "window", "flag"]


@st.composite
def fuzz_runs(draw):
    """(document text, flags) for one `classify` or `verify` run at small
    caps, the word cap and grid given by a flag or by the document.  One
    run in three carries one defect of a kind from DEFECTS."""
    dim = draw(st.integers(1, 4))
    defect = draw(st.sampled_from(DEFECTS)) if draw(st.integers(0, 2)) == 0 else None

    def point(n=dim):
        return [draw(fuzz_scalars) for _ in range(n)]

    gens = []
    for _ in range(draw(st.sampled_from([1, 2, 2, 2, 3, 3]))):
        if draw(st.integers(0, 4)) == 0:
            gens.append({"ratio": draw(st.sampled_from(["1", "zeta12^0", "exp(i*0)"])),
                         "translation": point()})
        else:
            gens.append({"ratio": draw(fuzz_scalars), "center": point()})
    doc = {"dim": dim, "generators": gens}
    if draw(st.booleans()):
        doc["points"] = [point() for _ in range(draw(st.integers(0, 2)))]
    options, flags = {}, []
    # grid^(2 dim) cells stay at most 729, so that tracing each claim over
    # the window keeps an example short
    grids = st.integers(2, {1: 4, 2: 3, 3: 3, 4: 2}[dim])
    for key, flag, small in (("word_cap", "--word-cap", st.integers(0, 3)), ("grid", "--grid", grids)):
        value = draw(small)
        if draw(st.booleans()):
            flags += [flag, str(value)]
        else:
            options[key] = value
    if draw(st.booleans()):
        options["eps"] = draw(st.sampled_from([1e-9, 1e-6, 0.5]))
    window = draw(st.sampled_from([None, "number", "object", "flag"]))
    if window == "number":
        options["window"] = draw(st.sampled_from([0.5, 1, 2.0]))
    elif window == "object":
        options["window"] = {"center": point(), "half": draw(st.sampled_from([1.0, 2]))}
    elif window == "flag":
        flags.append("--window=" + ",".join(point()) + ":1.5")
    if draw(st.integers(0, 4)) == 0:
        flags.append("--point=" + ",".join(point()))
    if draw(st.integers(0, 19)) == 0:
        flags.append("--exact")
    doc["options"] = options

    if defect == "dim":
        doc["dim"] = draw(fuzz_junk.filter(lambda v: v != dim))
    elif defect == "generators":
        doc["generators"] = draw(fuzz_junk)
    elif defect == "generator":
        g = draw(st.sampled_from(gens))
        kind = draw(st.sampled_from(["junk", "both", "neither", "no ratio", "ratio not 1"]))
        if kind == "junk":
            gens[gens.index(g)] = draw(fuzz_junk)
        elif kind == "both":
            g["center"] = g["translation"] = point()
        elif kind == "neither":
            g.pop("center", None), g.pop("translation", None)
        elif kind == "no ratio":
            del g["ratio"]
        else:
            g.pop("center", None)
            g.update(ratio=draw(fuzz_scalars), translation=point())
    elif defect == "scalar":
        draw(st.sampled_from(gens))["ratio"] = draw(st.sampled_from(BAD_SCALARS))
    elif defect == "coords":
        draw(st.sampled_from(gens))["center"] = point(draw(st.sampled_from([0, dim - 1, dim + 1])))
    elif defect == "option":
        options[draw(st.sampled_from(["word_cap", "grid", "eps"]))] = draw(
            fuzz_junk.filter(lambda v: v is not None))
    elif defect == "window":
        options["window"] = draw(st.one_of(
            fuzz_junk.filter(lambda v: v is not None and not isinstance(v, (int, float))),
            st.builds(lambda c, h: {"center": c, "half": h},
                      st.sampled_from([[], ["x"], ["0"] * (dim + 1)]), fuzz_junk)))
    elif defect == "flag":
        flags.append(draw(st.sampled_from(["--point=", "--window=x:1", "--window=0:"]))
                     + ",".join(point(draw(st.sampled_from([dim - 1, dim + 1])))))
    text = json.dumps(doc)
    if defect == "json":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif defect == "top":
        text = json.dumps(draw(st.one_of(fuzz_junk, st.just([doc]))))
    return text, flags


# documents that ended in a traceback: a direction of E_G whose float norm
# is 0 (ZeroDivisionError), and a division by a value within its error
# radius of 0 (UncertainZero); both are precision failures, exit 3
FLAT_DIRECTION = ('{"dim": 1, "generators": [{"ratio": "1", "translation": ["i"]}, '
                  '{"ratio": "i", "center": ["0.0"]}], "options": {"word_cap": 0, "grid": 2, "eps": 1.0}}',
                  ["--point=i"])
UNCERTAIN_DIVISOR = ('{"dim": 2, "generators": [{"ratio": "exp(i*1.1)", "center": ["i", "i"]}, '
                     '{"ratio": "1", "translation": ["1/2", "1/2"]}], "points": [["i", "i"], ["i", "-i"]], '
                     '"options": {"word_cap": 0, "grid": 2, "eps": 0.5}}', [])
# a JSON boolean option, once read as eps 1.0; now exit 1
BOOLEAN_EPS = ('{"dim": 1, "generators": [{"ratio": "i", "center": ["0"]}, '
               '{"ratio": "i", "center": ["1"]}], "options": {"eps": true}}', [])
# a ratio of 1e300: the norm of an E_G direction overflowed when squared,
# and verify's harvest meets a commutator past float range (now exit 3)
HUGE_RATIO = ('{"dim": 3, "generators": [{"ratio": "1e300", "center": ["i", "i", "i"]}, '
              '{"ratio": "i", "center": ["i", "i", "i"]}, '
              '{"ratio": "1", "translation": ["i", "i", "i"]}], "options": {"word_cap": 0, "grid": 2}}',
              ["--point=i,i,i"])


class TestInputGrammarFuzz:
    @settings(max_examples=25)
    @given(st.sampled_from(["classify", "verify"]), fuzz_runs())
    @example("classify", FLAT_DIRECTION)
    @example("verify", UNCERTAIN_DIVISOR)
    @example("verify", BOOLEAN_EPS)
    @example("classify", HUGE_RATIO)
    @example("verify", HUGE_RATIO)
    def test_every_document_ends_in_an_exit_code(self, command, run):
        text, flags = run
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc.json")
            with open(path, "w") as fh:
                fh.write(text)
            results = []
            # a three-generator harvest would meet 200,000 maps
            with mock.patch.object(orbit_oracle, "HARVEST_BUDGET", 2_000):
                for _ in range(2):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        code = main([command, "--input", path, *flags])
                    results.append((code, out.getvalue()))
        code, out = results[0]
        assert code in (EXIT_OK, EXIT_MALFORMED, EXIT_UNSUPPORTED, EXIT_UNDECIDABLE, EXIT_MISMATCH)
        assert results[1] == results[0]
        if code in (EXIT_MALFORMED, EXIT_UNDECIDABLE):
            assert out == ""
        else:
            jsonschema.validate(json.loads(out), SCHEMA)
