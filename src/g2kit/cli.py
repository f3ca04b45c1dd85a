"""Batch verification front-end.

Subcommands run the verification suites and emit deterministic JSON reports:

    g2kit verify-structure [--mutate NAME] [--report PATH]
    g2kit classify-3form --input FORM.json [--vol VOL.json] [--tol T] [--report PATH]
    g2kit sphere-suite [--samples N --seed S] [--tol T] [--threads K] [--mutate NAME]
                       [--report PATH]
    g2kit chern [--family standard|minus-standard|flip23] [--input DATA.json]
                [--report PATH]

There is no mode flag: an input document states its mode in its "mode" key
(exact when absent), and sphere-suite samples float points when --samples > 0.
--tol takes a finite number >= 0; any other value is a usage error.
Exit code 0 means every check in the report passed; 1 means some check
failed; 2 is a usage or input error.  A stdout reader that leaves early
(``| head``) loses the printed copy, not the exit code or ``--report`` file.
Reports are byte-reproducible given (command, inputs, seed): keys are sorted
and floats use fixed 17-significant-digit formatting.

The argparse parser is built once per process, on the first call of
:func:`main`, and reused by later calls: parsing leaves no state on it.

``--threads K`` (1 to ``os.cpu_count()``) splits sphere-suite's samples into
``min(K, samples)`` contiguous chunks.  The caller runs the first; each other
chunk goes to a helper process, forked on first use and kept for later calls.
Reports are joined in seed order, so K never changes their bytes.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import json
import marshal
import math
import os
import random
import sys
import threading

from . import jsonio
from .almost_symplectic import elliptic_definite_check
from .chern import CandidateJ, canonical_eta_basis, compute_rs, index_from_h
from .dga import CoframeDGA
from .forms import form_defect
from .g2 import AdaptedFrame, FrameConstructionError, dot, float_three_form, standard_frame
from .jsonio import JsonFormatError
from .scalars import EXACT, FLOAT, ComplexRational
from .sphere import (
    basis_point,
    exact_identities,
    frame_at_float_point,
    nijenhuis_closed_form,
    omega_at,
    phi_tangential,
    upsilon_at,
)
from .threeforms import FloatRangeError, classify_3form, standard_volume_form

USAGE_ERROR = 2


class InputError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} is not a JSON object")
    return doc


def _emit(report, args):
    text = jsonio.dumps_canonical(report)
    try:
        print(text, flush=True)
    except BrokenPipeError:  # the reader left; later flushes go to devnull (Python's signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    return 0 if report["pass"] else 1


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

def _real_form(path):
    """The form of the document at ``path``; the classification is defined for real forms.

    A form stores a complex type only for a nonzero imaginary part (``normalize_scalar``).
    """
    form = jsonio.form_from_obj(_load_json(path))
    if any(isinstance(c, (ComplexRational, complex)) for c in form.terms.values()):
        raise InputError(f"{path} is not a real form")
    return form


def cmd_classify_3form(args):
    rho = _real_form(args.input)
    vol = standard_volume_form()
    if args.vol:
        vol = _real_form(args.vol)
        if (vol.dim, vol.degree) != (6, 6) or vol.is_zero:
            raise InputError(f"{args.vol} is not a nonzero 6-form on R^6")
    cls = classify_3form(rho, vol, tol=args.tol)
    result = {
        "command": "classify-3form",
        "mode": rho.mode,
        "tag": cls.tag,
        "discriminant": cls.discriminant,
        "sqrt_is_exact": cls.sqrt_is_exact,
        "pass": True,
    }
    if cls.j_matrix is not None:
        result["J"] = jsonio.matrix_to_obj(cls.j_matrix, cls.mode)
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
    rng = random.Random(seed_i)
    frame = frame_at_float_point(rng, None)
    u = frame.x
    ups = upsilon_at(u, frame, upsilon_scale)
    defects = {"im_upsilon": form_defect(ups.imag(), phi_tangential(u))}
    frame2 = frame_at_float_point(rng, u)
    defects["frame_independence"] = form_defect(ups, upsilon_at(u, frame2, upsilon_scale))

    # the columns g2..g7 of a verified frame are an orthonormal basis of u-perp
    tangent = [row[1:] for row in frame.matrix]
    om6 = omega_at(u).pullback(tangent)
    dom6 = (3.0 * float_three_form()).pullback(tangent)
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


# Helpers are (pid, request fd, reply file), forked by this process; a forked
# child forgets its parent's.  Messages are marshal data, which keeps float bits
# and reads back exactly one object; a helper replies None when a sample raised.
_helpers = []
_helpers_lock = threading.Lock()


def _send(fd, obj):
    view = memoryview(marshal.dumps(obj))
    while view:
        view = view[os.write(fd, view):]


def _fork_helper():
    fds = []
    try:  # a pipe or fork that fails closes the pipe ends opened before it
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    request_in, request_out, reply_in, reply_out = fds
    if pid == 0:
        try:  # serve until the request pipe closes (EOFError); never return into the caller
            os.close(request_out)
            inbox = os.fdopen(request_in, "rb")
            while True:
                seeds, tol, upsilon_scale = marshal.load(inbox)
                try:
                    reply = [_sphere_sample_check(s, tol, upsilon_scale) for s in seeds]
                except Exception:  # the caller re-runs the chunk and meets the error itself
                    reply = None
                _send(reply_out, reply)
        finally:
            os._exit(0)
    os.close(request_in)
    os.close(reply_out)
    return pid, request_out, os.fdopen(reply_in, "rb")


def _drop(helper):
    """Close a helper's pipes, so that it reads end of file and exits, and reap it."""
    _helpers.remove(helper)
    os.close(helper[1])
    helper[2].close()
    with contextlib.suppress(ChildProcessError):  # reaped elsewhere already
        os.waitpid(helper[0], 0)


def _stop_helpers():
    while _helpers:
        _drop(_helpers[-1])


def _forget_helpers():
    global _helpers_lock
    for _, request_fd, replies in _helpers:
        os.close(request_fd)
        replies.close()
    _helpers.clear()
    _helpers_lock = threading.Lock()


atexit.register(_stop_helpers)
os.register_at_fork(after_in_child=_forget_helpers)


def _sample_reports(seeds, tol, upsilon_scale, workers):
    """The reports of ``seeds`` in order; helpers run every chunk after the first.

    A chunk whose helper died or whose sample raised is run here, so the
    outcome is the serial one; a dead helper is replaced on the next call.
    """
    with _helpers_lock:
        with contextlib.suppress(OSError):  # out of processes: fewer chunks
            while len(_helpers) < workers - 1:
                _helpers.append(_fork_helper())
        helpers, replies = _helpers[:workers - 1], []
        n, workers = len(seeds), len(helpers) + 1
        chunks = [seeds[i * n // workers:(i + 1) * n // workers] for i in range(workers)]
        for helper, chunk in zip(helpers, chunks[1:]):
            with contextlib.suppress(BrokenPipeError):  # a dead helper: its reply is end of file
                _send(helper[1], (chunk, tol, upsilon_scale))
        try:
            reports = [_sphere_sample_check(s, tol, upsilon_scale) for s in chunks[0]]
        finally:
            for helper in helpers:
                try:
                    replies.append(marshal.load(helper[2]))
                except EOFError:
                    replies.append(None)
                    _drop(helper)
    for chunk, reply in zip(chunks[1:], replies):
        reports += reply or [_sphere_sample_check(s, tol, upsilon_scale) for s in chunk]
    return reports


def cmd_sphere_suite(args, parser):
    tol, samples = args.tol, args.samples
    if samples > 0 and args.seed is None:
        parser.error("--seed is required when --samples > 0")
    upsilon_scale = 7 if args.mutate == "upsilon-scale" else 8
    checks = []

    symbolic_ok, exact_zero = exact_identities(upsilon_scale)
    checks.append({"check": "exact_point_identity", "pass": symbolic_ok and exact_zero})

    if samples > 0:
        seeds = [args.seed * 1_000_003 + i for i in range(samples)]
        sample_reports = _sample_reports(seeds, tol, upsilon_scale, min(args.threads, samples))
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
    point = jsonio.vector_from_obj(doc["point"], mode) if "point" in doc else None
    if point is not None and len(point) != 7:
        raise InputError(f"a point needs 7 entries, got {len(point)}")
    seed = jsonio._int_from_obj(doc.get("frame_seed", 0), "frame_seed")
    if "frame" in doc:
        frame = AdaptedFrame(jsonio.matrix_from_obj(doc["frame"], mode))
        if point is not None and point != frame.x:
            raise InputError("frame is not based at the given point")
        return frame
    if point is None or point == basis_point(1).u:
        frame = standard_frame()
        if mode == EXACT:
            return frame
        return AdaptedFrame([[float(x) for x in row] for row in frame.matrix], check=False)
    if mode == EXACT:
        raise InputError(
            "exact mode at a general point needs an explicit frame; "
            "supply \"frame\" or use float mode"
        )
    return frame_at_float_point(random.Random(seed), point)


_CHERN_KEYS = {"mode", "point", "frame", "frame_seed", "J"}

# the built-in structure families, as the planes that CandidateJ.flipped flips
_FAMILIES = {"standard": (), "minus-standard": (1, 2, 3), "flip23": (2, 3)}


def cmd_chern(args):
    family, j = args.family, None
    if args.input:
        doc = _load_json(args.input)
        jsonio._check_keys(doc, _CHERN_KEYS, "a chern document")
        mode = doc.get("mode", EXACT)
        if mode not in (EXACT, FLOAT):
            raise InputError(f"unknown mode {mode!r}")
        frame = _frame_from_input(doc, mode)
        if "J" in doc:
            if family is not None:
                raise InputError(f"--family {family} conflicts with the document's J")
            family = "from-input"
            try:
                j = CandidateJ(frame.x, jsonio.matrix_from_obj(doc["J"], mode))
            except Exception as exc:
                raise InputError(f"input J rejected: {exc}") from exc
    else:
        frame = standard_frame()
    if j is None:
        family = family or "standard"
        j = CandidateJ.flipped(frame, _FAMILIES[family])

    eta = canonical_eta_basis(frame) if family != "from-input" else None
    data = compute_rs(j, frame, eta)
    sig = index_from_h(data)
    residual = data.residual
    verdict = (
        f"residual zero: passes the necessary determinant condition, index ({sig[0]},{sig[1]})"
        if data.residual_is_zero
        else "residual nonzero: first-order obstruction to integrability present"
    )
    report = {
        "command": "chern",
        "mode": data.mode,
        "family": family,
        "r": [[jsonio.scalar_to_obj(x, data.mode) for x in row] for row in data.r],
        "s": [[jsonio.scalar_to_obj(x, data.mode) for x in row] for row in data.s],
        "residual": jsonio.scalar_to_obj(residual, data.mode),
        "residual_normalized_abs": data.residual_normalized_abs,
        "H_signature": list(sig),
        "orientation": f"{data.orientation:+d}",
        "verdict": verdict,
        "pass": True,
    }
    return _emit(report, args)


# ---------------------------------------------------------------------------

def _tolerance(text):
    """The type of ``--tol``: a finite float >= 0; argparse exits 2 on anything else."""
    if 0.0 <= float(text) < float("inf"):
        return float(text)
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")


def _threads(text):
    """The type of ``--threads``: 1 to ``os.cpu_count()``, checked before any process starts."""
    k, most = int(text), os.cpu_count() or 1
    if 1 <= k <= most:
        return k
    raise argparse.ArgumentTypeError(f"must be between 1 and the CPU count {most}, not {text!r}")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="g2kit", description="exact verification suites for the toolkit"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p1 = subs.add_parser("verify-structure", help="structure-equation consistency")
    p1.add_argument("--mutate", choices=CoframeDGA.MUTATIONS, default=None)

    p2 = subs.add_parser("classify-3form", help="split/elliptic/degenerate tag")
    p2.add_argument("--input", required=True, help="3-form JSON document")
    p2.add_argument("--vol", default=None, help="volume form JSON (default standard)")
    p2.add_argument(
        "--tol", type=_tolerance, default=1e-12, help="degeneracy tolerance of float forms, >= 0"
    )

    p3 = subs.add_parser("sphere-suite", help="pointwise sphere checks")
    p3.add_argument("--samples", type=int, default=0)
    p3.add_argument("--seed", type=int, default=None)
    p3.add_argument("--tol", type=_tolerance, default=1e-10, help="float defect bound, >= 0")
    p3.add_argument("--threads", type=_threads, default=1, help="sample processes, <= CPU count")
    p3.add_argument("--mutate", choices=("upsilon-scale",), default=None)

    p4 = subs.add_parser("chern", help="transition invariants of a structure")
    p4.add_argument("--input", default=None, help="point/frame/J JSON document")
    p4.add_argument(
        "--family",
        choices=tuple(_FAMILIES),
        default=None,
        help="built-in structure family (default standard)",
    )
    for sub in (p1, p2, p3, p4):
        sub.add_argument("--report", default=None, help="also write the JSON report here")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify-structure":
            return cmd_verify_structure(args)
        if args.command == "classify-3form":
            return cmd_classify_3form(args)
        if args.command == "sphere-suite":
            return cmd_sphere_suite(args, parser)
        return cmd_chern(args)
    except (InputError, JsonFormatError, FrameConstructionError, FloatRangeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
