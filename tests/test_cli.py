"""Command-line front end: input parsing, report schema, exit codes,
determinism, and the CSV dump path."""

import json
import pathlib

import jsonschema
import pytest

from homothety_orbits.cli import (
    EXIT_MALFORMED,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_UNDECIDABLE,
    EXIT_UNSUPPORTED,
    SCHEMA_ID,
    main,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO / "schemas" / "report.schema.json").read_text())


def write_doc(tmp_path, name, doc) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


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

    def test_heuristic_grid_fill_is_a_fraction(self, tmp_path, capsys):
        # a sum on the upper edge of the fill window must land in the last
        # cell; binning it one past the grid pushed the fill to 625/576
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

        def fills(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    if key == "grid_fill":
                        yield value
                    else:
                        yield from fills(value)
            elif isinstance(node, list):
                for value in node:
                    yield from fills(value)

        found = list(fills(report))
        assert found
        assert all(0.0 <= f <= 1.0 for f in found)


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
