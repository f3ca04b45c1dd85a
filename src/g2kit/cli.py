"""Batch verification front-end.

Subcommands run the verification suites and emit deterministic JSON reports:

    g2kit verify-structure [--mutate NAME] [--report PATH]
    g2kit classify-3form --input FORM.json [--vol VOL.json] [--report PATH]
    g2kit sphere-suite --samples N --seed S [--tol T] [--threads K] [--mutate NAME]
    g2kit chern [--family standard|minus-standard|flip23] [--input DATA.json]

Exit code 0 means every check in the report passed; 1 means some check
failed; 2 is a usage or input error.  Reports are byte-reproducible given
(command, inputs, seed, mode): keys are sorted and floats use fixed
17-significant-digit formatting.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import jsonio
from .chern import CandidateJ, compute_rs, index_from_h
from .dga import CoframeDGA
from .forms import form_defect
from .g2 import AdaptedFrame, FrameConstructionError, dot, standard_frame
from .jsonio import JsonFormatError
from .scalars import EXACT, FLOAT
from .sphere import (
    basis_point,
    frame_at_float_point,
    nijenhuis_closed_form,
    phi_tangential,
    upsilon_at,
    verify_domega_pointwise,
)

USAGE_ERROR = 2


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _emit(report, args):
    text = jsonio.dumps_canonical(report)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    return 0 if report["pass"] else 1


def _common_flags(sub, samples=False):
    sub.add_argument("--mode", choices=(EXACT, FLOAT), default=None)
    sub.add_argument("--tol", type=float, default=None)
    sub.add_argument("--report", default=None, help="also write the JSON report here")
    sub.add_argument("--input", default=None, help="input JSON document")
    if samples:
        sub.add_argument("--samples", type=int, default=None)
        sub.add_argument("--seed", type=int, default=None)
        sub.add_argument("--threads", type=int, default=1)


def _validate_config(args, parser):
    samples = getattr(args, "samples", None)
    if samples and samples > 0 and getattr(args, "seed", None) is None:
        parser.error("--seed is required when --samples > 0")
    if getattr(args, "threads", 1) < 1:
        parser.error("--threads must be at least 1")
    if args.tol is not None:
        implicit_float = args.command == "sphere-suite" and (samples or 0) > 0
        if args.mode != FLOAT and not implicit_float:
            parser.error("--tol is only legal in float mode")


# ---------------------------------------------------------------------------
# verify-structure
# ---------------------------------------------------------------------------

def cmd_verify_structure(args):
    dga = CoframeDGA(mutation=args.mutate)
    checks = (
        dga.verify_d_squared()
        + dga.verify_invariant_form_identities()
        + dga.verify_frobenius_system()
    )
    control = dga.verify_frobenius_system(("t1",))
    checks.append(
        {
            "check": "frobenius_control_single_generator_fails",
            "generator": "t1",
            "residual_terms": [],
            "pass": not all(c["pass"] for c in control),
        }
    )
    report = {
        "command": "verify-structure",
        "mode": EXACT,
        "mutation": args.mutate,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return _emit(report, args)


# ---------------------------------------------------------------------------
# classify-3form
# ---------------------------------------------------------------------------

def cmd_classify_3form(args, parser):
    from .threeforms import classify_3form, standard_volume_form

    if not args.input:
        parser.error("classify-3form needs --input FORM.json")
    rho = jsonio.form_from_obj(_load_json(args.input))
    vol = jsonio.form_from_obj(_load_json(args.vol)) if args.vol else standard_volume_form()
    cls = classify_3form(rho, vol, tol=args.tol if args.tol is not None else 1e-12)
    result = {
        "command": "classify-3form",
        "mode": rho.mode,
        "tag": cls.tag,
        "discriminant": cls.discriminant,
        "sqrt_is_exact": cls.sqrt_is_exact,
        "pass": True,
    }
    if cls.j_matrix is not None:
        jmode = FLOAT if isinstance(cls.j_matrix[0][0], (float, complex)) else EXACT
        result["J"] = jsonio.matrix_to_obj(cls.j_matrix, jmode)
        result["upsilon"] = jsonio.form_to_obj(cls.upsilon)
    return _emit(result, args)


# ---------------------------------------------------------------------------
# sphere-suite
# ---------------------------------------------------------------------------

def _sphere_sample_check(seed_i, tol, upsilon_scale):
    """All checks at one float sample point drawn from ``seed_i``.

    The Nijenhuis verdict (report key ``nijenhuis_nonzero_stable``) is
    |N(X, Y)| > 1e-3 for the closed-form tensor ``nijenhuis_closed_form`` at
    two random tangent vectors X, Y: the invariant structure is not
    integrable at the point.  The closed form has no step size, so the
    verdict cannot depend on one.
    """
    import math
    import random

    rng = random.Random(seed_i)
    frame = frame_at_float_point(rng, None)
    u = frame.x
    defects = {}
    defects["im_upsilon"] = form_defect(
        upsilon_at(u, frame, upsilon_scale).imag(), phi_tangential(u)
    )
    frame2 = frame_at_float_point(rng, u)
    defects["frame_independence"] = form_defect(
        upsilon_at(u, frame, upsilon_scale), upsilon_at(u, frame2, upsilon_scale)
    )
    from .almost_symplectic import elliptic_definite_check
    from .sphere import omega_at
    from .g2 import associative_three_form

    basis = frame.tangent_columns()
    om6 = omega_at(u).restrict(basis, tol=1e-9)
    dom6 = (3.0 * associative_three_form().as_float()).restrict(
        [[float(x) for x in b] for b in basis], tol=1e-9
    )
    rep = elliptic_definite_check(om6, dom6, tol=1e-9)
    defects["lambda_one_form"] = rep.decomposition.lam.norm_inf()
    ok_elliptic = rep.tag == "elliptic" and rep.signature == (3, 0) and rep.elliptic_definite

    tangent = []
    for _ in range(2):
        v = [rng.gauss(0, 1) for _ in range(7)]
        p = dot(v, u)
        tangent.append([x - p * c for x, c in zip(v, u)])
    nij_ok = math.sqrt(sum(x * x for x in nijenhuis_closed_form(u, *tangent))) > 1e-3

    return {
        "seed": seed_i,
        "defects": defects,
        "elliptic_definite": ok_elliptic,
        "nijenhuis_nonzero_stable": nij_ok,
        "pass": bool(
            ok_elliptic
            and nij_ok
            and max(defects.values()) < tol
        ),
    }


def cmd_sphere_suite(args):
    tol = args.tol if args.tol is not None else 1e-10
    samples = args.samples or 0
    upsilon_scale = 7 if args.mutate == "upsilon-scale" else 8
    checks = []

    base = verify_domega_pointwise(0, seed=0, tol=tol, upsilon_scale=upsilon_scale)
    checks.append(
        {
            "check": "exact_point_identity",
            "pass": base["symbolic_d_omega_ambient"] and base["exact_point_defect_zero"],
        }
    )

    sample_reports = []
    if samples > 0:
        seeds = [args.seed * 1_000_003 + i for i in range(samples)]
        workers = args.threads
        if workers == 1:
            sample_reports = [_sphere_sample_check(s, tol, upsilon_scale) for s in seeds]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                sample_reports = list(
                    pool.map(lambda s: _sphere_sample_check(s, tol, upsilon_scale), seeds)
                )
        agg = {
            "check": "sampled_points",
            "samples": samples,
            "seed": args.seed,
            "max_defect": max(max(r["defects"].values()) for r in sample_reports),
            "all_elliptic_definite": all(r["elliptic_definite"] for r in sample_reports),
            "all_nijenhuis_nonzero_stable": all(
                r["nijenhuis_nonzero_stable"] for r in sample_reports
            ),
            "pass": all(r["pass"] for r in sample_reports),
        }
        checks.append(agg)

    report = {
        "command": "sphere-suite",
        "mode": FLOAT if samples > 0 else EXACT,
        "samples": samples,
        "seed": args.seed,
        "tol": tol,
        "mutation": args.mutate,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return _emit(report, args)


# ---------------------------------------------------------------------------
# chern
# ---------------------------------------------------------------------------

def _frame_from_input(doc, mode):
    if "frame" in doc:
        frame = AdaptedFrame(jsonio.matrix_from_obj(doc["frame"], mode))
        if "point" in doc and tuple(jsonio.vector_from_obj(doc["point"], mode)) != frame.x:
            raise InputError("frame is not based at the given point")
        return frame
    point = tuple(jsonio.vector_from_obj(doc["point"], mode)) if "point" in doc else None
    if point is None or point == basis_point(1).u:
        return standard_frame()
    if mode == EXACT:
        raise InputError(
            "exact mode at a general point needs an explicit frame; "
            "supply \"frame\" or use float mode"
        )
    import random

    return frame_at_float_point(random.Random(doc.get("frame_seed", 0)), point)


def cmd_chern(args, parser):
    mode = args.mode or EXACT
    family = args.family
    if args.input:
        doc = _load_json(args.input)
        mode = doc.get("mode", mode)
        frame = _frame_from_input(doc, mode)
        if "J" in doc:
            family = "from-input"
            try:
                j = CandidateJ(frame.x, jsonio.matrix_from_obj(doc["J"], mode))
            except Exception as exc:
                raise InputError(f"input J rejected: {exc}") from exc
        else:
            family = family or "standard"
            j = _family_structure(family, frame)
    else:
        frame = standard_frame()
        family = family or "standard"
        j = _family_structure(family, frame)

    from .chern import canonical_eta_basis

    eta = canonical_eta_basis(frame) if family != "from-input" else None
    data = compute_rs(j, frame, eta)
    sig = index_from_h(data)
    residual = data.residual
    exact = not isinstance(data.r[0][0], (float, complex))
    verdict = (
        f"residual zero: passes the necessary determinant condition, index ({sig[0]},{sig[1]})"
        if data.residual_is_zero
        else "residual nonzero: first-order obstruction to integrability present"
    )
    rep_mode = EXACT if exact else FLOAT
    report = {
        "command": "chern",
        "mode": rep_mode,
        "family": family,
        "r": [[jsonio.scalar_to_obj(x, rep_mode) for x in row] for row in data.r],
        "s": [[jsonio.scalar_to_obj(x, rep_mode) for x in row] for row in data.s],
        "residual": jsonio.scalar_to_obj(residual, rep_mode),
        "residual_normalized_abs": data.residual_normalized_abs,
        "H_signature": list(sig),
        "orientation": f"{data.orientation:+d}",
        "verdict": verdict,
        "pass": True,
    }
    return _emit(report, args)


def _family_structure(name, frame):
    if name == "standard":
        return CandidateJ.flipped(frame, ())
    if name == "minus-standard":
        return CandidateJ.flipped(frame, (1, 2, 3))
    if name == "flip23":
        return CandidateJ.flipped(frame, (2, 3))
    raise InputError(f"unknown family {name!r}")


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="g2kit", description="exact verification suites for the toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p1 = subs.add_parser("verify-structure", help="structure-equation consistency")
    _common_flags(p1)
    p1.add_argument("--mutate", choices=CoframeDGA.MUTATIONS, default=None)

    p2 = subs.add_parser("classify-3form", help="split/elliptic/degenerate tag")
    _common_flags(p2)
    p2.add_argument("--vol", default=None, help="volume form JSON (default standard)")

    p3 = subs.add_parser("sphere-suite", help="pointwise sphere checks")
    _common_flags(p3, samples=True)
    p3.add_argument("--mutate", choices=("upsilon-scale",), default=None)

    p4 = subs.add_parser("chern", help="transition invariants of a structure")
    _common_flags(p4)
    p4.add_argument(
        "--family",
        choices=("standard", "minus-standard", "flip23"),
        default=None,
        help="built-in structure family (default standard)",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_config(args, parser)
    try:
        if args.command == "verify-structure":
            return cmd_verify_structure(args)
        if args.command == "classify-3form":
            return cmd_classify_3form(args, parser)
        if args.command == "sphere-suite":
            return cmd_sphere_suite(args)
        if args.command == "chern":
            return cmd_chern(args, parser)
    except (InputError, JsonFormatError, FrameConstructionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    parser.error(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
