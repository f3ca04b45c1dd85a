"""The four benchmark workloads: inputs from a seed, requests, and the oracle.

Each workload turns ``--seed`` into a deterministic stream of request
batches, runs one request through g2kit's public functions or ``cli.main``,
and checks the outcome against the verdict the input was built to have.
A batch is the unit the runner starts before its deadline: one request,
except on ``cli_exact``, whose batch is one whole cycle of its fixed mix so
that every run holds the same share of each request kind.

Why each workload was chosen is in its class docstring and in
BENCHMARK.json; ``heavy`` names the modules the traced run must see on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

from g2kit import chern, cli, g2, linalg, sampling, sphere, threeforms
from g2kit.forms import ExteriorForm

OK, KNOWN_DEFECT, FAILED = "ok", "known_defect", "failed"

SPHERE_SAMPLES = 4
SWEEP_TRIALS = 200  # a multiple of the sweep's default cross-check period
FRAME_POOL = 2


@dataclass(frozen=True)
class Request:
    label: str
    args: tuple
    items: int
    expect: object = None


@dataclass(frozen=True)
class CliResult:
    code: object
    stdout: str
    error: str | None


def call_cli(argv):
    """``cli.main`` in-process with stdout and stderr captured.

    An exception out of ``cli.main`` is returned, not raised: it is an
    outcome for the oracle to judge, not a crash of the benchmark.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return CliResult(exc.code, out.getvalue(), None)
    except Exception as exc:
        return CliResult(None, out.getvalue(), type(exc).__name__)
    return CliResult(code, out.getvalue(), None)


def _report(result: CliResult):
    return json.loads(result.stdout.splitlines()[-1])


def _frac_bits(x):
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _scalar_bits(x):
    if isinstance(x, Fraction):
        return _frac_bits(x)
    return max(_frac_bits(x.re), _frac_bits(x.im))  # ComplexRational


def _matrix_bits(m):
    return max(_scalar_bits(x) for row in m for x in row)


class Workload:
    name = ""
    label = ""
    items = 1  # items (samples, frame pipelines, trials) per request
    parallel_workers = 1  # workers the program itself uses in the parallel phase
    heavy = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def inputs(self, count):
        """The first ``count`` batches and the input files, as one JSON text.

        Paths are written relative to the work directory, so the same seed
        gives the same text in any directory.
        """
        it, prefix = self.batches(), self.workdir + os.sep
        reqs = [[r.label, [str(a).replace(prefix, "") for a in r.args]]
                for _ in range(count) for r in next(it)]
        files = {}
        for name in sorted(os.listdir(self.workdir)):
            with open(os.path.join(self.workdir, name)) as fh:
                files[name] = fh.read()
        return json.dumps({"requests": reqs, "files": files}, sort_keys=True)

    def batches(self):
        """One request per batch, each with its own seed drawn from the run's seed."""
        rng = random.Random(self.seed)
        while True:
            yield [Request(self.label, (rng.randrange(2**31),), self.items)]

    def run(self, req, workers=1):
        raise NotImplementedError

    def check(self, req, output):
        raise NotImplementedError

    def max_bits(self, output):
        """Largest numerator/denominator bit length in frames and r, s."""
        return 0


# ---------------------------------------------------------------------------
# sphere_float
# ---------------------------------------------------------------------------

class SphereFloat(Workload):
    """The float sweep users run over S^6, and the only user of the CLI pool.

    Float forms/linalg/scalars, sphere, almost_symplectic and the numpy
    finite-difference Nijenhuis tensor; almost no Fraction arithmetic.
    """

    name = "sphere_float"
    label = "sphere-suite"
    items = SPHERE_SAMPLES
    heavy = ("forms", "sphere", "almost_symplectic")

    def __init__(self, seed, workdir, mutate=None):
        super().__init__(seed, workdir)
        self.parallel_workers = min(2, os.cpu_count() or 1)
        self.extra = ("--mutate", mutate) if mutate else ()

    def run(self, req, workers=1):
        argv = ["sphere-suite", "--samples", str(SPHERE_SAMPLES), "--seed", str(req.args[0]),
                "--threads", str(workers), *self.extra]
        return call_cli(argv)

    def check(self, req, output):
        if output.code != 0 or output.error:
            return FAILED
        rep = _report(output)
        ok = rep["pass"] is True and rep["samples"] == SPHERE_SAMPLES and len(rep["checks"]) == 2
        return OK if ok and all(c["pass"] is True for c in rep["checks"]) else FAILED


# ---------------------------------------------------------------------------
# exact_frames
# ---------------------------------------------------------------------------

MINUS_ID6 = [[Fraction(-1 if a == b else 0) for b in range(6)] for a in range(6)]


def frame_pipeline(item_seed):
    """One exact item: frame, membership, identity, (r, s), two classifications."""
    rng = random.Random(item_seed)
    frame = sampling.random_rational_frame(rng)
    u = frame.x
    out = {
        "frame": frame.matrix,
        "is_g2": g2.is_g2(frame.matrix),
        "identity": sphere.upsilon_at(u, frame).imag() == sphere.phi_tangential(u),
    }
    eta = chern.canonical_eta_basis(frame)
    for key, planes in (("standard", ()), ("flip23", (2, 3))):
        data = chern.compute_rs(chern.CandidateJ.flipped(frame, planes), frame, eta)
        out[key] = (data.residual, chern.index_from_h(data), data.r, data.s)
    tangent = g2.associative_three_form().restrict(frame.tangent_columns())
    cls = threeforms.classify_3form(tangent)
    j_ok = cls.j_matrix is not None and cls.sqrt_is_exact
    out["tangent"] = (cls.tag, j_ok and linalg.mat_mul(cls.j_matrix, cls.j_matrix) == MINUS_ID6)
    g = sampling.random_invertible_rational(rng, 6)
    out["pullback"] = threeforms.classify_3form(threeforms.split_normal_form().pullback(g)).tag
    return out


class ExactFrames(Workload):
    """How Tier-1 and the acceptance criteria use the package, without the CLI.

    Exact Fraction/ComplexRational arithmetic in linalg, forms (pullback,
    evaluate), g2 and sampling; no numpy.
    """

    name = "exact_frames"
    label = "frame"
    heavy = ("g2", "sampling", "linalg", "chern", "threeforms")

    def run(self, req, workers=1):
        return frame_pipeline(req.args[0])

    def check(self, req, out):
        ok = (
            out["is_g2"] is True
            and out["identity"] is True
            and out["standard"][:2] == (-1, (3, 0))
            and out["flip23"][:2] == (0, (1, 2))
            and out["tangent"] == ("elliptic", True)
            and out["pullback"] == "split"
        )
        return OK if ok else FAILED

    def max_bits(self, out):
        return max(
            _matrix_bits(out["frame"]),
            *(_matrix_bits(m) for key in ("standard", "flip23") for m in out[key][2:]),
        )


# ---------------------------------------------------------------------------
# dichotomy_sweep
# ---------------------------------------------------------------------------

class DichotomySweep(Workload):
    """The large randomized sweep of acceptance criterion 8.

    Nearly all time is chern's private Gaussian-integer kernel on int pairs,
    with linalg.signature only on cross-checks: linalg and chern used
    differently from exact_frames.
    """

    name = "dichotomy_sweep"
    label = "sweep"
    items = SWEEP_TRIALS
    heavy = ("chern",)

    def run(self, req, workers=1):
        return chern.signature_dichotomy_sweep(SWEEP_TRIALS, req.args[0])

    def check(self, req, rep):
        counts = rep["signature_counts"]
        ok = (
            rep["pass"] is True
            and rep["definite_seen"] is False
            and rep["trials"] == SWEEP_TRIALS
            and set(counts) <= {"(1, 2)", "(2, 1)"}
            and sum(counts.values()) == SWEEP_TRIALS
        )
        return OK if ok else FAILED


# ---------------------------------------------------------------------------
# cli_exact
# ---------------------------------------------------------------------------

def _form_doc(form):
    return {
        "dim": form.dim,
        "degree": form.degree,
        "mode": "exact",
        "terms": [{"idx": list(idx), "re": str(c)} for idx, c in sorted(form.terms.items())],
    }


def _matrix_doc(m):
    return [[str(x) for x in row] for row in m]


def _bad_form(idx=(1, 2, 3), coeff="1", dim=6):
    return {"dim": dim, "degree": 3, "terms": [{"idx": list(idx), "re": coeff}]}


# Malformed inputs that must exit 2 but, when this benchmark was written,
# raise out of cli.main or are accepted (ROADMAP section 5), as
# (exit code, exception name).  That outcome is a known defect: not a pass,
# and not an unexpected failure either; any other wrong outcome is.
KNOWN_DEFECTS = {
    "malformed index 9": (None, "InvalidIndexError"),
    "malformed coefficient 1/0": (None, "ZeroDivisionError"),
    "malformed 7-dimensional form": (None, "ValueError"),
    "malformed --samples -5": (0, None),
}


class CliExact(Workload):
    """A fixed mix of exact CLI requests: passing, failing (exit 1), rejected (exit 2).

    The only workload that exercises dga, polyforms, jsonio and the exit-code
    contract.
    """

    name = "cli_exact"
    heavy = ("dga", "jsonio", "cli")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        docs = {}
        for k in (1, 2):
            g = sampling.random_invertible_rational(rng, 6)
            docs[f"split{k}"] = _form_doc(threeforms.split_normal_form().pullback(g))
            g = sampling.random_invertible_rational(rng, 6)
            docs[f"elliptic{k}"] = _form_doc(threeforms.elliptic_normal_form().pullback(g))
        g = sampling.random_invertible_rational(rng, 6)
        docs["degenerate"] = _form_doc(ExteriorForm(6, 3, {(1, 2, 3): Fraction(1)}).pullback(g))
        for k in range(1, FRAME_POOL + 1):
            frame = sampling.random_rational_frame(rng)
            flip = chern.CandidateJ.flipped(frame, (2, 3))
            docs[f"frame{k}"] = {"frame": _matrix_doc(frame.matrix)}
            docs[f"frame{k}_flip23"] = dict(docs[f"frame{k}"], J=_matrix_doc(flip.matrix))
        docs["bad_index"] = _bad_form(idx=(1, 2, 9))
        docs["bad_zero_denominator"] = _bad_form(coeff="1/0")
        docs["bad_dim7"] = _bad_form(dim=7)
        docs["bad_float_in_exact"] = _bad_form(coeff=1.5)
        docs["bad_missing_dim"] = {"degree": 3, "terms": []}
        docs["bad_frame"] = {"frame": [["1"] * 7] * 7}
        docs["bad_exact_point"] = {"point": ["0", "1", "0", "0", "0", "0", "0"]}
        docs["bad_json"] = '{"dim": 6, "degree": '
        self.paths = {}
        for key, doc in docs.items():
            self.paths[key] = os.path.join(workdir, f"{key}.json")
            with open(self.paths[key], "w") as fh:
                fh.write(doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True))
        self.cycle = self._cycle()

    def _cycle(self):
        p = self.paths
        reqs = [
            Request("verify-structure", ("verify-structure",), 1, (0, {"pass": True})),
            Request("verify-structure dkappa-coeff",
                    ("verify-structure", "--mutate", "dkappa-coeff"), 1, (1, {"pass": False})),
            Request("verify-structure dtheta-coeff",
                    ("verify-structure", "--mutate", "dtheta-coeff"), 1, (1, {"pass": False})),
        ]
        for key in ("split1", "elliptic1", "split2", "elliptic2", "degenerate"):
            tag = key.rstrip("12")
            expect = {"tag": tag, "pass": True}
            if tag == "elliptic":
                expect["sqrt_is_exact"] = True
            reqs.append(Request(f"classify-3form {tag}", ("classify-3form", "--input", p[key]), 1,
                                (0, expect)))
        families = {
            "standard": ("-1", [3, 0]), "minus-standard": ("1", [0, 3]), "flip23": ("0", [1, 2]),
        }
        for fam, (res, sig) in families.items():
            reqs.append(Request(f"chern {fam}", ("chern", "--family", fam), 1,
                                (0, {"residual": {"re": res, "im": "0"}, "H_signature": sig})))
        for k in range(1, FRAME_POOL + 1):
            reqs.append(Request("chern input frame", ("chern", "--input", p[f"frame{k}"]), 1,
                                (0, {"family": "standard", "residual": {"re": "-1", "im": "0"},
                                     "H_signature": [3, 0]})))
            reqs.append(Request("chern input frame+J",
                                ("chern", "--input", p[f"frame{k}_flip23"]), 1,
                                (0, {"family": "from-input", "residual": {"re": "0", "im": "0"},
                                     "H_signature": [1, 2]})))
        reqs.append(Request("sphere-suite 0 samples", ("sphere-suite", "--samples", "0"), 1,
                            (0, {"pass": True, "mode": "exact"})))
        bad = {
            "malformed index 9": ("classify-3form", "--input", p["bad_index"]),
            "malformed coefficient 1/0": ("classify-3form", "--input", p["bad_zero_denominator"]),
            "malformed 7-dimensional form": ("classify-3form", "--input", p["bad_dim7"]),
            "malformed --samples -5": ("sphere-suite", "--samples", "-5"),
            "malformed float in exact document":
                ("classify-3form", "--input", p["bad_float_in_exact"]),
            "malformed missing dim": ("classify-3form", "--input", p["bad_missing_dim"]),
            "malformed json": ("classify-3form", "--input", p["bad_json"]),
            "malformed missing file": ("classify-3form", "--input", p["bad_json"] + ".absent"),
            "malformed frame": ("chern", "--input", p["bad_frame"]),
            "malformed exact point without frame": ("chern", "--input", p["bad_exact_point"]),
            "malformed family": ("chern", "--family", "bogus"),
        }
        for label, argv in bad.items():
            reqs.append(Request(label, argv, 1, (2, None)))
        return reqs

    def batches(self):
        while True:
            yield self.cycle

    def run(self, req, workers=1):
        return call_cli(req.args)

    def check(self, req, out):
        code, fields = req.expect
        if out.code == code and out.error is None:
            if fields is None:
                return OK if not out.stdout else FAILED
            rep = _report(out)
            return OK if all(rep.get(k) == v for k, v in fields.items()) else FAILED
        if KNOWN_DEFECTS.get(req.label) == (out.code, out.error):
            return KNOWN_DEFECT
        return FAILED

    def max_bits(self, out):
        rep = _report(out) if out.code == 0 else {}
        if rep.get("command") != "chern":
            return 0
        return max(_frac_bits(x[part]) for m in (rep["r"], rep["s"]) for row in m
                   for x in row for part in ("re", "im"))


WORKLOADS = {w.name: w for w in (SphereFloat, ExactFrames, DichotomySweep, CliExact)}


def warmup(name, seed):
    """One request of the workload, for the set-up probe (no input files)."""
    if name == "cli_exact":
        return call_cli(["verify-structure"])
    w = WORKLOADS[name](seed, None)
    req = next(w.batches())[0]
    return w.run(req)
