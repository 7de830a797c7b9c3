"""Command-line front end.

Reads a self-contained JSON group specification, runs the symbolic engine
and the brute-force oracle, and emits a single structured report (plus
plot-ready CSV for orbit dumps).  Reports are deterministic: identical
input and options produce byte-identical output.

Exit codes: 0 success; 1 malformed input (bad JSON, dimension mismatch,
abelian group, approximate data under --exact); 2 the group falls in the
real-ratio case this artifact does not cover; 3 a sign/equality test could
not be resolved at the working precision; 4 the oracle contradicted the
symbolic verdict (the loud failure mode).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .affine_maps import Homothety, Point, as_point, zero_point
from .closure_engine import (
    ClosureDesc,
    RotationCoset,
    Unsupported,
    WholeSpace,
    global_verdicts,
    orbit_closure,
)
from .exact_algebra import (
    SCALAR_ONE,
    Scalar,
    ScalarParseError,
    Trilean,
    UncertainZero,
    UndecidableAtPrecision,
    format_scalar,
    parse_scalar,
)
from .group_profile import AbelianGroup, GroupSpec, compute_profile
from . import orbit_oracle

SCHEMA_ID = "homothety-orbits-report/1"

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_UNSUPPORTED = 2
EXIT_UNDECIDABLE = 3
EXIT_MISMATCH = 4


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs: input, command, caps, window, policy.

    A cap, tolerance, window or grid left at None was not given on the
    command line: the document's `options` decide it, else the default.
    `build_spec` checks the merged values."""

    command: str
    input_path: Optional[str] = None
    word_cap: Optional[int] = None
    eps: Optional[float] = None
    window_center: Tuple[str, ...] = ()
    window_half: Optional[float] = None
    grid_res: Optional[int] = None
    out_dir: Optional[str] = None
    exact_policy: str = "allow-approx"
    cli_points: Tuple[str, ...] = ()


def _parse_point(values: Sequence, dim: int, what: str) -> Point:
    coords = [parse_scalar(str(v)) for v in values]
    if len(coords) != dim:
        raise ValueError(
            f"{what} has {len(coords)} coordinates, the group lives in dimension {dim}"
        )
    return as_point(coords)


def _parse_generator(doc: dict, dim: int, index: int) -> Homothety:
    if not isinstance(doc, dict) or "ratio" not in doc:
        raise ValueError(f"generator {index}: expected an object with a 'ratio'")
    ratio = parse_scalar(str(doc["ratio"]))
    if ratio.eq_zero() is not Trilean.NO:
        raise ValueError(f"generator {index}: ratio 0 (or within error of 0) is not allowed")
    has_center = "center" in doc
    has_translation = "translation" in doc
    if has_center == has_translation:
        raise ValueError(
            f"generator {index}: give exactly one of 'center' or 'translation'"
        )
    if has_translation:
        if ratio.eq(SCALAR_ONE) is not Trilean.YES:
            raise ValueError(
                f"generator {index}: a translation must have ratio exactly 1"
            )
        return Homothety.translation(
            _parse_point(doc["translation"], dim, f"generator {index} translation")
        )
    if ratio.eq(SCALAR_ONE) is not Trilean.NO:
        raise ValueError(
            f"generator {index}: ratio 1 (or unresolvably close to 1) cannot "
            "have a center; use the 'translation' form"
        )
    return Homothety.with_center(
        ratio, _parse_point(doc["center"], dim, f"generator {index} center")
    )


def _load_document(config: RunConfig) -> dict:
    if config.input_path is None:
        raise ValueError("this command needs --input")
    with open(config.input_path, "r") as fh:
        return json.load(fh)


def _option_number(value, name: str, integral: bool = False):
    """A document option as a float, or as an int when `integral`: a JSON
    boolean is not a number, and an integral option has no fractional part."""
    if isinstance(value, bool):
        raise ValueError(f"'options.{name}' must be a number, not {json.dumps(value)}")
    if integral and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"'options.{name}' must be an integer, not {value!r}")
    return int(value) if integral else float(value)


def build_spec(doc: dict, config: RunConfig) -> Tuple[GroupSpec, List[Point], dict]:
    """Input document + CLI overrides -> (GroupSpec, points, merged options)."""
    if not isinstance(doc, dict):
        raise ValueError("input document must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, list) or not gens_doc:
        raise ValueError("'generators' must be a nonempty list")
    generators = tuple(
        _parse_generator(g, dim, i + 1) for i, g in enumerate(gens_doc)
    )
    opts = dict(doc.get("options", {}))
    word_cap = config.word_cap if config.word_cap is not None else opts.get("word_cap")
    if word_cap is not None:
        word_cap = _option_number(word_cap, "word_cap", integral=True)
    eps = config.eps if config.eps is not None else _option_number(opts.get("eps", 1e-9), "eps")
    window = opts.get("window")
    half = config.window_half
    center_texts: Tuple[str, ...] = config.window_center
    if half is None:
        half = 2.0
        if isinstance(window, (int, float)):
            half = _option_number(window, "window")
        elif isinstance(window, dict):
            half = _option_number(window.get("half", 2.0), "window.half")
            center_texts = tuple(str(c) for c in window.get("center", ()))
        elif window is not None:
            raise ValueError("'options.window' must be a number or an object")
    grid = config.grid_res
    if grid is None:
        grid = _option_number(opts.get("grid", 40), "grid", integral=True)
    spec = GroupSpec(dim=dim, generators=generators, word_cap=word_cap, eps=eps)
    if config.exact_policy == "require-exact" and not spec.is_exact:
        raise ValueError(
            "approximate scalar in input while --exact (require-exact) is set"
        )
    points: List[Point] = []
    for i, pv in enumerate(doc.get("points", [])):
        points.append(_parse_point(pv, dim, f"point {i + 1}"))
    for i, text in enumerate(config.cli_points):
        points.append(
            _parse_point(text.split(","), dim, f"--point {i + 1}")
        )
    if not points:
        points.append(zero_point(dim))
    if config.exact_policy == "require-exact":
        for p in points:
            if not all(c.is_exact for c in p):
                raise ValueError(
                    "approximate point while --exact (require-exact) is set"
                )
    merged = {
        "word_cap": spec.default_word_cap(),
        "eps": eps,
        "window": {"center": list(center_texts), "half": half},
        "grid": grid,
        "exact_policy": config.exact_policy,
    }
    _check_options(merged)
    return spec, points, merged


def _check_options(merged: dict) -> None:
    """The one gate for run options, flags and document merged."""
    if merged["word_cap"] < 0:
        raise ValueError("word cap must be nonnegative")
    if not (math.isfinite(merged["eps"]) and merged["eps"] > 0):
        raise ValueError("eps must be finite and positive")
    half = merged["window"]["half"]
    if not (math.isfinite(half) and half > 0):
        raise ValueError("window half-width must be finite and positive")
    if merged["grid"] < 2:
        raise ValueError("grid resolution must be at least 2")
    if merged["exact_policy"] not in ("require-exact", "allow-approx"):
        raise ValueError(f"unknown exactness policy {merged['exact_policy']!r}")


def _window_tuple(spec: GroupSpec, merged: dict):
    center_texts = merged["window"]["center"]
    half = merged["window"]["half"]
    if not center_texts:
        return half
    center = [parse_scalar(t).to_complex() for t in center_texts]
    if len(center) != spec.dim:
        raise ValueError("window center dimension mismatch")
    return (center, half)


def _spec_report(spec: GroupSpec) -> dict:
    return {
        "dim": spec.dim,
        "generators": [
            {
                "ratio": format_scalar(g.ratio),
                "shift": [format_scalar(c) for c in g.shift],
            }
            for g in spec.generators
        ],
        "exact": spec.is_exact,
    }


def _emit_report(report: dict, config: RunConfig) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        path = os.path.join(config.out_dir, "report.json")
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _classify_core(
    config: RunConfig,
) -> Tuple[GroupSpec, List[Point], dict, List[ClosureDesc], dict]:
    doc = _load_document(config)
    spec, points, merged = build_spec(doc, config)
    profile = compute_profile(spec)
    closures = [orbit_closure(profile, z) for z in points]
    verdicts = global_verdicts(profile)
    report = {
        "schema": SCHEMA_ID,
        "command": config.command,
        "input": _spec_report(spec),
        "options": merged,
        "profile": profile.to_report(),
        "points": [[format_scalar(c) for c in p] for p in points],
        "closures": [c.to_report() for c in closures],
        "verdicts": verdicts.to_report(),
        "status": "ok",
    }
    return spec, points, merged, closures, report


def cmd_classify(config: RunConfig) -> int:
    spec, points, merged, closures, report = _classify_core(config)
    if any(isinstance(c, Unsupported) for c in closures):
        report["status"] = "unsupported"
        _emit_report(report, config)
        return EXIT_UNSUPPORTED
    _emit_report(report, config)
    return EXIT_OK


def cmd_orbit(config: RunConfig) -> int:
    doc = _load_document(config)
    spec, points, merged = build_spec(doc, config)
    z = points[0]
    cap = merged["word_cap"]
    try:
        sample = orbit_oracle.enumerate(spec, z, cap)
    except orbit_oracle.BudgetExceeded as exc:
        sample = exc.sample
        print(
            f"warning: enumeration truncated at {len(sample)} points",
            file=sys.stderr,
        )
    text = sample.csv_text()
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        path = os.path.join(config.out_dir, "orbit.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _required_evidence(closure: ClosureDesc, ev) -> List[str]:
    """Which evidence gates this closure kind must pass."""
    failures: List[str] = []
    if not ev.soundness_pass:
        failures.append(
            f"soundness: max violation {ev.max_violation:.3e} exceeds tolerance"
        )
    if isinstance(closure, WholeSpace):
        if not ev.density_pass:
            failures.append(
                f"density: fill fraction {ev.fill_fraction:.3f} below 0.9 "
                "for a whole-space claim"
            )
    if isinstance(closure, RotationCoset) and closure.translation_closure is not None:
        tc = closure.translation_closure
        if tc.is_discrete() is Trilean.YES and not ev.discreteness_pass:
            failures.append(
                "discreteness: min gap kept shrinking although the predicted "
                "translation closure is discrete"
            )
        if tc.is_whole_plane() is Trilean.YES and not ev.density_pass:
            failures.append(
                f"density: fill fraction {ev.fill_fraction:.3f} below 0.9 "
                "for a dense-coset claim"
            )
    return failures


def cmd_verify(config: RunConfig) -> int:
    spec, points, merged, closures, report = _classify_core(config)
    if any(isinstance(c, Unsupported) for c in closures):
        report["status"] = "unsupported"
        _emit_report(report, config)
        return EXIT_UNSUPPORTED
    window = _window_tuple(spec, merged)
    approach = orbit_oracle.harvest_translations(spec, 10)
    evidence = []
    failures: List[str] = []
    for z, closure in zip(points, closures):
        try:
            sample = orbit_oracle.enumerate(spec, z, merged["word_cap"])
        except orbit_oracle.BudgetExceeded as exc:
            sample = exc.sample
        ev = orbit_oracle.verify(
            closure,
            sample,
            window=window,
            grid_res=merged["grid"],
            eps=merged["eps"],
            approach_translations=approach,
        )
        evidence.append({"sample": sample.to_report(), "evidence": ev.to_report()})
        for f in _required_evidence(closure, ev):
            failures.append(
                f"point {[format_scalar(c) for c in z]}: {f}"
            )
    report["evidence"] = evidence
    report["failures"] = failures
    report["status"] = "ok" if not failures else "verification-mismatch"
    _emit_report(report, config)
    return EXIT_OK if not failures else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# built-in end-to-end scenarios


def _scenario_rotation_translation_discrete() -> Tuple[str, bool, str]:
    """Translation by 1 with the quarter-turn scaling: closed discrete orbits."""
    spec = GroupSpec(
        dim=1,
        generators=(
            Homothety.translation((Scalar.integer(1),)),
            Homothety.scaling(Scalar.zeta_power(3), 1),
        ),
    )
    profile = compute_profile(spec)
    verd = global_verdicts(profile)
    z = zero_point(1)
    closure = orbit_closure(profile, z)
    sample = orbit_oracle.enumerate(spec, z, 10)
    approach = orbit_oracle.harvest_translations(spec, 10)
    ev = orbit_oracle.verify(
        closure, sample, window=2.0, grid_res=40, approach_translations=approach
    )
    ok = (
        verd.all_orbits_closed_discrete is Trilean.YES
        and verd.has_dense_orbit is Trilean.NO
        and ev.soundness_pass
        and ev.discreteness_pass
    )
    detail = (
        f"closed-discrete={verd.all_orbits_closed_discrete.name} "
        f"violation={ev.max_violation:.1e} min_gap={ev.min_gap:.6f}"
    )
    return "quarter-turn with translation: closed and discrete", ok, detail


def _scenario_rotation_translation_dense() -> Tuple[str, bool, str]:
    """Translation by 1 with a non-crystallographic unit rotation: dense."""
    theta = 1.0
    rot = Scalar.approx(complex(math.cos(theta), math.sin(theta)), 1e-15)
    spec = GroupSpec(
        dim=1,
        generators=(
            Homothety.translation((Scalar.integer(1),)),
            Homothety.scaling(rot, 1),
        ),
    )
    profile = compute_profile(spec)
    verd = global_verdicts(profile)
    z = zero_point(1)
    closure = orbit_closure(profile, z)
    sample = orbit_oracle.enumerate(spec, z, 13)
    ev = orbit_oracle.verify(closure, sample, window=2.0, grid_res=40)
    ok = (
        verd.has_dense_orbit is Trilean.YES
        and closure.kind() == "WholeSpace"
        and ev.soundness_pass
        and ev.density_pass
    )
    detail = (
        f"dense={verd.has_dense_orbit.name} fill={ev.fill_fraction:.3f} "
        f"points={ev.n_points}"
    )
    return "unit rotation off the crystallographic set: dense", ok, detail


def _scenario_three_centers_dense_plane() -> Tuple[str, bool, str]:
    """Three non-collinear centers in C^2 with non-real, non-unit ratios."""
    doc_gens = (
        (Scalar.gauss(0, 2), ("1.4142135623730951", "0")),
        (Scalar.gauss(0, 3), ("0", "1")),
        (Scalar.gauss(0, -2), ("-1.7320508075688772", "-1.4142135623730951")),
    )
    gens = tuple(
        Homothety.with_center(r, tuple(parse_scalar(c) for c in cs))
        for r, cs in doc_gens
    )
    spec = GroupSpec(dim=2, generators=gens)
    profile = compute_profile(spec)
    verd = global_verdicts(profile)
    z = zero_point(2)
    closure = orbit_closure(profile, z)
    sample = orbit_oracle.enumerate(spec, z, 7)
    ev = orbit_oracle.verify(closure, sample, window=2.0, grid_res=6)
    ok = (
        verd.has_dense_orbit is Trilean.YES
        and verd.all_orbits_in_U_dense is Trilean.YES
        and closure.kind() == "WholeSpace"
        and profile.E_G.is_whole_space()
        and ev.soundness_pass
    )
    detail = (
        f"dense={verd.has_dense_orbit.name} E-dim={profile.E_G.dim} "
        f"violation={ev.max_violation:.1e}"
    )
    return "three spiral centers spanning the plane: all orbits dense", ok, detail


def _scenario_basis_translations_dense(n: int) -> Tuple[str, bool, str]:
    """Basis translations plus one non-real scaling: dense in every dimension."""
    gens: List[Homothety] = []
    for k in range(n):
        vec = [Scalar.integer(0)] * n
        vec[k] = Scalar.integer(1)
        gens.append(Homothety.translation(tuple(vec)))
    gens.append(Homothety.scaling(Scalar.gauss(0, 2), n))
    spec = GroupSpec(dim=n, generators=tuple(gens))
    profile = compute_profile(spec)
    verd = global_verdicts(profile)
    z = zero_point(n)
    closure = orbit_closure(profile, z)
    cap = 6 if n <= 2 else 4
    sample = orbit_oracle.enumerate(spec, z, cap)
    ev = orbit_oracle.verify(closure, sample, window=2.0, grid_res=4)
    ok = (
        verd.has_dense_orbit is Trilean.YES
        and closure.kind() == "WholeSpace"
        and profile.E_G.is_whole_space()
        and ev.soundness_pass
    )
    detail = f"dense={verd.has_dense_orbit.name} E-dim={profile.E_G.dim}"
    return (
        f"basis translations with a spiral scaling in dimension {n}: dense",
        ok,
        detail,
    )


def cmd_paper_examples(config: RunConfig) -> int:
    scenarios = [
        _scenario_rotation_translation_discrete,
        _scenario_rotation_translation_dense,
        _scenario_three_centers_dense_plane,
        lambda: _scenario_basis_translations_dense(2),
        lambda: _scenario_basis_translations_dense(3),
    ]
    all_ok = True
    for fn in scenarios:
        name, ok, detail = fn()
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    print(f"{'5/5' if all_ok else 'some scenarios'} {'pass' if all_ok else 'FAILED'}")
    return EXIT_OK if all_ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="homothety-orbits",
        description=(
            "Classify orbit closures of finitely generated groups of affine "
            "homotheties of C^n and cross-check every claim with a "
            "brute-force orbit enumeration."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("classify", "symbolic orbit-closure descriptions and global verdicts"),
        ("orbit", "enumerate an orbit and dump it as CSV"),
        ("verify", "classify, enumerate, and cross-check the two"),
        ("paper-examples", "run the built-in worked examples end to end"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="path to the JSON group specification")
        p.add_argument(
            "--point",
            action="append",
            default=[],
            help=(
                "extra point, comma-separated scalar coordinates (repeatable); "
                "a value may start with a minus sign, as in --point -1/2,3"
            ),
        )
        p.add_argument("--word-cap", type=int, help="maximum word length")
        p.add_argument("--eps", type=float, help="tolerance (default 1e-9)")
        p.add_argument(
            "--window",
            help="evidence window: HALF or 'c1,...,cn:HALF' (default 2.0), "
            "as in --window -1:2",
        )
        p.add_argument("--grid", type=int, help="grid resolution per axis (default 40)")
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument(
            "--exact",
            action="store_true",
            help="require exact input data (reject decimals)",
        )
    return parser


def _attach_dash_values(argv: Sequence[str]) -> List[str]:
    """Write `--point V` and `--window V` as `--point=V`, `--window=V`:
    argparse reads a separate value that starts with '-' as an option
    unless it is a plain negative number, and "-1/2,3" is not one."""
    out: List[str] = []
    for arg in argv:
        dash_value = arg.startswith("-") and not arg.startswith("--")
        if dash_value and out and out[-1] in ("--point", "--window"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    center: Tuple[str, ...] = ()
    half = None
    if args.window is not None and ":" in args.window:
        center_part, half_part = args.window.rsplit(":", 1)
        center = tuple(center_part.split(","))
        half = float(half_part)
    elif args.window is not None:
        half = float(args.window)
    return RunConfig(
        command=args.command,
        input_path=args.input,
        word_cap=args.word_cap,
        eps=args.eps,
        window_center=center,
        window_half=half,
        grid_res=args.grid,
        out_dir=args.out,
        exact_policy="require-exact" if args.exact else "allow-approx",
        cli_points=tuple(args.point),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        config = _config_from_args(args)
        if config.command == "classify":
            return cmd_classify(config)
        if config.command == "orbit":
            return cmd_orbit(config)
        if config.command == "verify":
            return cmd_verify(config)
        if config.command == "paper-examples":
            return cmd_paper_examples(config)
        raise ValueError(f"unknown command {config.command!r}")
    except (UndecidableAtPrecision, UncertainZero) as exc:
        print(f"undecidable at working precision: {exc}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except OverflowError as exc:  # a float step past float range
        print(f"undecidable at working precision: float overflow ({exc})", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except AbelianGroup as exc:
        print(f"malformed input: abelian group ({exc})", file=sys.stderr)
        return EXIT_MALFORMED
    except (
        ScalarParseError,
        ValueError,
        KeyError,
        TypeError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
