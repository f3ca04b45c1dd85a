"""The g2kit benchmark: one workload in a closed loop, one client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each request is sent only after the previous one completed.  After one
untimed warm-up request the run sends ``ROUNDS`` rounds:

* phase A, sequential: the first round sends new requests until its share
  of ``--seconds`` is spent, stopping only at a batch boundary; later rounds
  re-send that list;
* phase B, after each A round, where the program runs workers of its own
  (``--threads min(2, nproc)`` on sphere_float): the same list through
  them.  The other workloads have no parallel path, and there phase B is
  phase A.

Every re-sent request must repeat its first output byte for byte.

Timings are reported in *ref* units.  The run times :func:`reference_task`,
a fixed pure-Python task that uses no g2kit code, before the first request
and after every ``REFERENCE_EVERY`` seconds of requests, and divides each
request's seconds by the mean of the two reference times around it.  On a
shared machine, stretches of seconds to minutes run up to 1.8x slower for
reasons outside the program; the reference slows with them, so the ratio
holds still where raw seconds do not.  A request's time is the median of its
rounds.  Raw seconds are printed in the context line beside them.

With ``--trace 1``, phase C re-sends the list once more with every public
g2kit function wrapped in a span (see spans.py), and the spans give the
per-module metrics.  ``--trace 0`` also times the set-up (import plus one
warm-up request) in fresh interpreters, between rounds.  Every output is
checked against the verdict its input was built to have.  The run prints
every metric by name and unit, then, as its last line, one JSON object:
correct, attempted, failed and the metrics BENCHMARK.json declares for the
mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ROUNDS = 3
SETUP_PROBES = 5  # spread over the rounds
MEASURED_SHARE = {0: 0.9, 1: 0.5}  # of --seconds, for phases A and B; C gets the rest
TRACED_SHARE = 0.4
SEQUENTIAL_SHARE = 0.45  # of a round where phase B runs too; B's threads run slower
SPAN_CAP = 1_000_000  # about 28 MB of spans
REFERENCE_EVERY = 0.1  # seconds of requests between two timings of the reference

# Per-module metric -> (end-to-end metric it should move, workloads).  On every
# other workload the prediction is no change.
MOVES = {
    "g2.is_g2.calls_per_item": ("throughput_per_ref", ("exact_frames",)),
    "threeforms.k_operator.calls_per_classify": ("latency_p50_ref", ("exact_frames", "cli_exact")),
    "scalars.mode_of.calls_per_item": ("throughput_per_ref", ("sphere_float",)),
    "sphere.nijenhuis_sphere.self_ms_per_item": ("throughput_per_ref", ("sphere_float",)),
    "linalg.signature.calls_per_trial": ("throughput_per_ref", ("dichotomy_sweep",)),
    "dga.self_ms_per_item": ("latency_p50_ref", ("cli_exact",)),
    "cli.parallel_efficiency": ("parallel_throughput_per_ref", ("sphere_float",)),
    "scalars.max_bits": ("latency_p50_ref", ("exact_frames",)),
}


def load_program():
    if not (SRC / "g2kit" / "__init__.py").is_file():
        sys.exit(f"benchmark needs the g2kit sources in {SRC}")
    sys.path.insert(0, str(SRC))


def reference_task():
    """Exact elimination, dict updates and float sums: a fixed mix like g2kit's.

    It never changes and imports nothing from g2kit, so its duration tracks
    only how fast this machine runs Python at the moment.
    """
    rng = random.Random(7)
    n = 10
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c])
        m[c], m[p] = m[p], m[c]
        det *= m[c][c] if p == c else -m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    terms = {}
    for i in range(400):
        for j in range(40):
            key = ((i * 7 + j * 3) % 97, i % 5)
            terms[key] = terms.get(key, 0.0) + (i - j) * 0.5
    return det, sum(terms.values())


def reference_seconds():
    t0 = time.perf_counter()
    reference_task()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def context(args):
    # src_sha256 names the code where the checkout is not a git repository.
    digest = hashlib.sha256()
    lines = 0
    for f in sorted(SRC.rglob("*.py")):
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def setup_probe(workload, seed):
    """Seconds for import g2kit plus one warm-up request, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------

class Phase:
    """Requests sent in one round: outputs, seconds, and seconds in ref units."""

    def __init__(self):
        self.batches = []
        self.reqs = []
        self.outs = []
        self.secs = []
        self.norm = []
        self.refs = []

    @classmethod
    def median_of(cls, rounds):
        """The first round, with each request's median times over all rounds."""
        med = cls()
        med.batches, med.reqs, med.outs = rounds[0].batches, rounds[0].reqs, rounds[0].outs
        med.secs = [statistics.median(t) for t in zip(*(r.secs for r in rounds))]
        med.norm = [statistics.median(t) for t in zip(*(r.norm for r in rounds))]
        med.refs = [t for r in rounds for t in r.refs]
        return med

    def items(self, n=None):
        return sum(r.items for r in self.reqs[:n])

    def per_ref(self, n=None):
        return self.items(n) / sum(self.norm[:n])

    def per_s(self, n=None):
        return self.items(n) / sum(self.secs[:n])


def run_phase(workload, batches, deadline, workers=1, tracer=None):
    phase = Phase()
    before, pending = reference_seconds(), []

    def normalize():
        nonlocal before
        after = reference_seconds()
        phase.norm += [s / ((before + after) / 2) for s in pending]
        phase.refs.append(after)
        before = after
        pending.clear()

    for batch in batches:
        if phase.reqs and (
            time.perf_counter() >= deadline or (tracer is not None and len(tracer) >= SPAN_CAP)
        ):
            break
        phase.batches.append(batch)
        for req in batch:
            rid = len(phase.reqs)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.run(req, workers)
                else:
                    out = tracer.span_request(rid, workload.run, req, workers)
            except Exception as exc:  # a failed request, not a crash of the benchmark
                out = exc
            pending.append(time.perf_counter() - t0)
            phase.secs.append(pending[-1])
            phase.reqs.append(req)
            phase.outs.append(out)
            if sum(pending) >= REFERENCE_EVERY:
                normalize()
    if pending:
        normalize()
    return phase


def run_rounds(workload, batches, seconds, probe=None):
    """``ROUNDS`` rounds of phase A, each followed by phase B where it differs.

    ``probe``, when given, is called ``SETUP_PROBES`` times between rounds.
    Returns the A rounds, the B rounds and the probe results.
    """
    parallel = workload.parallel_workers > 1
    first_round = seconds / ROUNDS * (SEQUENTIAL_SHARE if parallel else 1)
    a_rounds, b_rounds, probes = [], [], []
    for r in range(ROUNDS):
        if probe is not None:
            probes += [probe() for _ in range((r + 1) * SETUP_PROBES // ROUNDS
                                              - r * SETUP_PROBES // ROUNDS)]
        if r == 0:
            a_rounds.append(run_phase(workload, batches, time.perf_counter() + first_round))
        else:
            a_rounds.append(run_phase(workload, a_rounds[0].batches, float("inf")))
        if parallel:
            b_rounds.append(run_phase(workload, a_rounds[0].batches, float("inf"),
                                      workload.parallel_workers))
    return a_rounds, b_rounds or a_rounds, probes


def statuses(workload, phase, reference=None):
    """Oracle verdict per request; a re-run must also repeat the reference output."""
    import workloads as wl

    out = []
    for i, (req, res) in enumerate(zip(phase.reqs, phase.outs)):
        if isinstance(res, Exception) or (reference is not None and res != reference.outs[i]):
            out.append(wl.FAILED)
            continue
        try:
            out.append(workload.check(req, res))
        except (KeyError, IndexError, TypeError, ValueError):  # malformed report
            out.append(wl.FAILED)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def latency_tail(secs):
    """Highest percentile with at least ten requests beyond it, and that percentile.

    With ten requests or fewer there is none; the maximum stands in for it.
    """
    xs = sorted(secs)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(probes, a, b, verdicts):
    import workloads as wl

    tail, pct = latency_tail(a.norm)
    metrics = {
        "setup_s": statistics.median(probes),
        "throughput_per_ref": a.per_ref(),
        "latency_p50_ref": statistics.median(a.norm),
        "latency_tail_ref": tail,
        "pass_ratio": verdicts.count(wl.OK) / len(verdicts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "parallel_throughput_per_ref": b.per_ref(),
    }
    raw = {
        "tail_percentile": round(pct, 2),
        "requests": len(a.reqs),
        "ref_ms": 1000 * statistics.median(a.refs),
        "throughput_per_s": a.per_s(),
        "latency_p50_ms": 1000 * statistics.median(a.secs),
        "latency_tail_ms": 1000 * latency_tail(a.secs)[0],
        "parallel_throughput_per_s": b.per_s(),
    }
    return metrics, raw


def per_module(tracer, items):
    """Span counts and self times per item: per module, and the named ones."""
    import spans

    selfs = spans.self_times(tracer.start, tracer.end, tracer.parent)
    calls, self_s = Counter(), defaultdict(float)
    for nid, s in zip(tracer.name, selfs):
        calls[nid] += 1
        self_s[nid] += s
    by_name = {tracer.names[nid]: n for nid, n in calls.items()}
    metrics = {}
    for mod in spans.MODULES:
        ids = [nid for nid, name in enumerate(tracer.names) if name.split(".")[0] == mod]
        metrics[f"{mod}.calls_per_item"] = sum(calls[i] for i in ids) / items
        metrics[f"{mod}.self_ms_per_item"] = 1000 * sum(self_s[i] for i in ids) / items
    nij = tracer.name_ids.get("sphere.nijenhuis_sphere")
    classify = by_name.get("threeforms.classify_3form", 0)
    metrics.update({
        "g2.is_g2.calls_per_item": by_name.get("g2.is_g2", 0) / items,
        "threeforms.k_operator.calls_per_classify":
            by_name.get("threeforms.k_operator", 0) / classify if classify else 0.0,
        "scalars.mode_of.calls_per_item": by_name.get("scalars.mode_of", 0) / items,
        "sphere.nijenhuis_sphere.self_ms_per_item":
            1000 * self_s.get(nij, 0.0) / items if nij is not None else 0.0,
        "linalg.signature.calls_per_trial": by_name.get("linalg.signature", 0) / items,
    })
    return metrics


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    load_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}")
    ctx = context(args)
    probe = None if args.trace else (lambda: setup_probe(args.workload, args.seed))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        batches = workload.batches()
        for req in next(batches):  # warm-up, untimed
            workload.run(req)
        a_rounds, b_rounds, probes = run_rounds(
            workload, batches, MEASURED_SHARE[args.trace] * args.seconds, probe)
        verdicts = statuses(workload, a_rounds[0])
        first = a_rounds[0]
        failures = [f"{req.label} {req.args}: {out!r}"[:300]
                    for req, out, v in zip(first.reqs, first.outs, verdicts) if v == wl.FAILED]
        for r in a_rounds[1:] + (b_rounds if b_rounds is not a_rounds else []):
            verdicts += statuses(workload, r, a_rounds[0])
        a, b = Phase.median_of(a_rounds), Phase.median_of(b_rounds)
        missing = []
        if args.trace:
            import spans

            tracer = spans.Tracer()
            deadline = time.perf_counter() + TRACED_SHARE * args.seconds
            with tracer:
                c = run_phase(workload, a.batches, deadline, tracer=tracer)
            verdicts += statuses(workload, c, a)
            metrics = per_module(tracer, c.items())
            ok_outs = [o for o, v in zip(a.outs, verdicts) if v == wl.OK]
            metrics.update({
                "cli.parallel_efficiency": b.per_ref() / (a.per_ref() * workload.parallel_workers),
                "scalars.max_bits": max(map(workload.max_bits, ok_outs), default=0),
                # against the latest untraced round, as C is one round too
                "trace.overhead_ratio": a_rounds[-1].per_ref(len(c.reqs)) / c.per_ref(),
            })
            missing = [m for m in workload.heavy if metrics[f"{m}.calls_per_item"] == 0]
            tracer.write(OUT / f"{args.workload}.spans")
            extra = {"spans": len(tracer), "traced_requests": len(c.reqs)}
        else:
            metrics, extra = end_to_end(probes, a, b, verdicts)

    counts = Counter(verdicts)
    ctx.update(extra, failed_ratio=1 - counts[wl.OK] / len(verdicts),
               known_defects=counts[wl.KNOWN_DEFECT], heavy_modules_missing=missing,
               first_failures=failures[:3])
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ names)}")
    print("# context " + json.dumps(ctx, sort_keys=True))
    for m in declared:
        note = ""
        if m["name"] in MOVES:
            target, where = MOVES[m["name"]]
            note = f"  (moves {target} on {', '.join(where)}; elsewhere no change)"
        print(f"{m['name']:<44} {metrics[m['name']]:>14.6g} {m['unit']}{note}")
    result = {
        "correct": counts[wl.FAILED] == 0 and not missing,
        "attempted": len(verdicts),
        "failed": counts[wl.FAILED],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
