"""Benchmark of unifan: four workloads, run in one process and one thread.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports unifan from ./src and
writes fan files and traces under ./.perfbench_work. The workloads, their
per-fan time limits and the reasons for them are in perfbench/workloads.json.
Each fan's output is checked against answers the benchmark derives itself
and against the report digests in perfbench/digests.json. Times are scaled
to a fixed machine speed, sampled while each call runs (see Speed). The last
line of standard output is one JSON object: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. The exit code is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path[:0] = [SRC, HERE]

import corpus  # noqa: E402
import tracing  # noqa: E402

DIGESTS_PATH = os.path.join(HERE, "digests.json")
CLI_FLAGS = {
    "products": ["--orbits", "--check"],
    "blowups": ["--orbits", "--check"],
    "roots": ["--roots"],
}
MODULES = ["unifan"] + [f"unifan.{m}" for m in tracing.LAYERS]


@functools.cache
def load(name: str):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


def workload_config(workload: str) -> dict:
    return load("workloads.json")["workloads"][workload]


class FanStopped(BaseException):
    """Raised by the per-fan limit; a BaseException so that no handler in
    the program can swallow it."""


def _stop(signum, frame):
    raise FanStopped


@contextlib.contextmanager
def alarm(seconds: float):
    """Stops the block after `seconds` of wall-clock time."""
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class WrongOutput(Exception):
    pass


# ---------------------------------------------------------- machine speed
#
# On a shared host the speed of one process drifts by tens of percent, both
# within a second and over minutes, and a fan's time drifts with it. Every
# time the benchmark reports is therefore scaled to a fixed speed, measured
# with a fixed pure-Python loop that does not touch unifan: exact rational
# arithmetic and tuple-keyed dicts, as in the program's kernels. The loop is
# timed every PROBE_INTERVAL_S of CPU time while a call runs, from a SIGPROF
# handler whose time is taken out of the call's, and before and after the
# call for calls too short to be sampled. The same handler enforces the
# per-fan limit, also in seconds at reference speed, so that whether a fan
# is decided does not depend on how busy the host is.

PROBE_LOOP = 150  # iterations of the loop in one speed sample
PROBE_INTERVAL_S = 0.02
PROBE_BOUNDARY_ROUNDS = 3  # samples taken between two calls
REFERENCE_S = 0.001  # a sample's time at the speed every time is scaled to


def probe() -> float:
    """Seconds one speed sample takes."""
    start = perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, PROBE_LOOP):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
        table[i, i % 7] = (i, total.numerator % 97)
    return perf_counter() - start


def probes() -> list[float]:
    """The speed samples taken between two calls."""
    return [probe() for _ in range(PROBE_BOUNDARY_ROUNDS)]


class Speed:
    """Speed samples taken while the calls in a `with` block run; the block
    is stopped with FanStopped once it has run `limit` seconds at reference
    speed."""

    def __init__(self, limit: float | None = None) -> None:
        self.limit = limit
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the sampler

    def __enter__(self):
        self.start = perf_counter()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - start
        if self.limit is not None and self.scale(perf_counter() - self.start) > self.limit:
            raise FanStopped

    def scale(self, seconds: float, around: list = ()) -> float:
        """`seconds`, measured around the block, without the sampler's time
        and at reference speed. `around` are the probes() taken next to the
        block, used when no sample fell inside it. The median keeps a sample
        that a garbage collection ran into from counting."""
        samples = self.samples or around
        return (seconds - self.spent) * REFERENCE_S / statistics.median(samples)


# ------------------------------------------------------------------ set-up


def import_unifan():
    """Import unifan from the checkout's src, afresh."""
    for name in [n for n in sys.modules if n == "unifan" or n.startswith("unifan.")]:
        del sys.modules[name]
    mods = {name.split(".")[-1]: importlib.import_module(name) for name in MODULES}
    if not os.path.abspath(mods["unifan"].__file__).startswith(SRC + os.sep):
        raise ImportError(f"unifan was imported from outside {SRC}")
    return mods


def make_corpus(workload: str, seed: int):
    if workload == "blowups":
        return corpus.blowups(seed, workload_config("blowups")["plan"])
    return getattr(corpus, workload)(random.Random(f"{workload}:{seed}"))


def setup(workload: str, seed: int, folder: str):
    """Import unifan, generate the corpus and write its fan files."""
    mods = import_unifan()
    fans = make_corpus(workload, seed)
    if workload == "sweep":
        for f in fans:
            kind, weights, parameter = f.spec
            f.spec = mods["families"].FamilySpec(kind=kind, weights=weights, parameter=parameter)
    else:
        for i, f in enumerate(fans):
            f.path = os.path.join(folder, f"{i:04d}.json")
            with open(f.path, "w", encoding="utf-8") as fh:
                json.dump(f.payload(), fh)
    return mods, fans


# ---------------------------------------------------------------- one fan


def call_library(mods, f):
    fan = mods["families"].build(f.spec)
    analysis = mods["pipeline"].analyze_fan(fan)
    return fan, analysis, mods["families"].cross_check(fan, analysis.verdict)


def call_cli(mods, f, flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mods["cli"].main(["analyze", f.path, "--format", "json", *flags])
    return code, out.getvalue()


def _require(cond, what):
    if not cond:
        raise WrongOutput(what)


def library_digest(fan, analysis, cc) -> str:
    v = analysis.verdict
    doc = {
        "rays": [list(r) for r in fan.ray_vectors()],
        "verdict": [v.finite, v.orbit_count, v.reason],
        "witness": list(v.witness_cone.ray_indices) if v.witness_cone else None,
        "catalog": [
            [list(r.basic.rays), list(r.basic.hat), r.dimension, len(r.t_orbit_cones)]
            for r in analysis.catalog or ()
        ],
        "cross_check": [list(cc.predictions), cc.agree],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_library(f, result) -> str:
    fan, analysis, cc = result
    v = analysis.verdict
    _require(v.finite == f.expect["finite"], "verdict")
    _require(v.orbit_count == f.expect["orbit_count"], "orbit count")
    _require(cc.agree, "cross-check disagrees")
    if v.finite:
        total = sum(len(r.t_orbit_cones) for r in analysis.catalog)
        _require(total == len(fan.all_cones), "torus orbits do not cover the cones")
    return library_digest(fan, analysis, cc)


def check_cli(f, result) -> str:
    code, text = result
    _require(code == 0, f"exit code {code}")
    report = json.loads(text)
    fan, verdict, exp = report["fan"], report["verdict"], f.expect
    _require(
        (fan["dim"], fan["rays"], fan["max_cones"]) == (f.dim, f.rays, f.max_cones),
        "fan echo",
    )
    num_cones = exp.get("num_cones") or corpus.face_count(f.max_cones)
    _require(fan["num_cones"] == num_cones and fan["complete"], "cone count")
    if "finite" in exp:
        _require(verdict["finite"] == exp["finite"], "verdict")
        _require(verdict["orbit_count"] == exp["orbit_count"], "orbit count")
    _require((report["bilateral"] is not None) == exp["radiant"], "radiance")
    if not exp["radiant"]:
        _require(verdict["reason"] == "not_radiant", "verdict reason")
    if exp.get("smooth"):
        cg = report["class_group"]
        _require(cg["torsion_invariants"] == [], "torsion in a smooth fan")
        _require(cg["free_rank"] == len(f.rays) - f.dim, "class group rank")
    if "roots" in exp:
        roots = report["roots"]
        _require(roots["total"] == exp["roots"] == len(roots["list"]), "root count")
    if "orbits" in report:
        total = sum(len(r["t_orbit_cones"]) for r in report["orbits"]["records"])
        _require(total == num_cones, "torus orbits do not cover the cones")
    if "oracle" in report:
        _require(report["oracle"]["failures"] == 0, "oracle failures")
    if report.get("cross_check", {}).get("applicable", True) and "cross_check" in report:
        _require(report["cross_check"]["agree"], "cross-check disagrees")
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ passes


class Outcome:
    """What one pass over the corpus gave."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.undecided: list[str] = []
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.report_bytes: dict[str, int] = {}
        self.fan_spans: dict[str, tuple[int, int]] = {}

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def run_pass(workload, mods, fans, recorded=None, tracer=None) -> Outcome:
    """One pass over the corpus, one fan at a time. `recorded` maps digest
    keys to the report digests recorded for this workload; None skips the
    comparison. Every fixed-corpus fan must have one; a blowups draw is
    compared where one was recorded. An untraced pass samples the machine's
    speed (see Speed), scales each fan's time to reference speed and stops a
    fan at the limit in that time; a traced pass stops it at the limit in
    wall-clock time, as the sampler would add to the spans."""
    limit = workload_config(workload)["per_fan_limit_s"]
    flags = CLI_FLAGS.get(workload)
    out = Outcome()
    before = probes()
    for f in fans:
        gc.collect()  # each fan starts from the same heap, so its collections repeat
        first_span = len(tracer.spans) if tracer else 0
        speed = Speed(limit)
        start = perf_counter()
        try:
            try:
                with speed if tracer is None else alarm(limit):
                    result = call_library(mods, f) if flags is None else call_cli(mods, f, flags)
            finally:
                seconds = perf_counter() - start
                after = probes()
                out.times[f.name] = seconds - speed.spent
                out.scaled[f.name] = speed.scale(seconds, before + after)
                before = after
        except FanStopped:
            out.undecided.append(f.name)
            out.times.setdefault(f.name, limit)  # an alarm that came after the call
            out.scaled.setdefault(f.name, limit)
            continue
        except Exception as exc:  # a failed fan is reported, the run goes on
            out.errors.append(f"{f.name}: {type(exc).__name__}: {exc}")
            continue
        try:
            digest = check_library(f, result) if flags is None else check_cli(f, result)
            if recorded is not None and (f.key in recorded or not f.drawn):
                _require(recorded.get(f.key) == digest, "report digest differs from the recorded one")
        except (WrongOutput, KeyError, TypeError, ValueError) as exc:
            out.errors.append(f"{f.name}: wrong output: {exc}")
            continue
        if flags is not None:
            out.report_bytes[f.name] = len(result[1].encode())
        out.digests[f.key] = digest
        if tracer:
            out.fan_spans[f.name] = (first_span, len(tracer.spans))
    return out


# --------------------------------------------------------------- metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(passes, setup_times) -> dict:
    """The timings are taken over each fan's typical time, the median over
    the passes of its time at reference speed; wall_s is one pass at those
    times."""
    typical = {name: statistics.median(p.scaled[name] for p in passes) for name in passes[0].scaled}
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.undecided) + len(p.errors) for p in passes)
    return {
        "wall_s": (sum(typical.values()), "s"),
        "fan_p50_ms": (statistics.median(typical.values()) * 1e3, "ms"),
        "fan_p95_ms": (percentile(typical.values(), 95) * 1e3, "ms"),
        "decided_share": (1 - failed / attempted, "ratio"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, mods, fans, untraced: Outcome):
    """Two traced passes after the untraced ones; their per-fan call counts
    must agree on every fan both decided."""
    tracer = tracing.Tracer()
    tracer.install()
    passes, span_lists = [], []
    for _ in range(2):
        tracer.reset()
        passes.append(run_pass(workload, mods, fans, load("digests.json")[workload], tracer))
        span_lists.append(list(tracer.spans))
    first, second = passes
    both = sorted(first.fan_spans.keys() & second.fan_spans.keys())
    mismatched = [
        name
        for name in both
        if tracing.call_counts(span_lists[0], *first.fan_spans[name])
        != tracing.call_counts(span_lists[1], *second.fan_spans[name])
    ]
    metrics = tracing.summarize(span_lists[0], [first.fan_spans[n] for n in both])
    again = tracing.summarize(span_lists[1], [second.fan_spans[n] for n in both])
    for key, (value, unit) in again.items():
        if unit == "s":
            metrics[key] = ((metrics[key][0] + value) / 2, unit)
    metrics["cli.report_bytes"] = (sum(first.report_bytes.get(n, 0) for n in both), "bytes")
    # At reference speed, over the fans all three passes decided: the
    # untraced pass stops a fan at the limit in reference-speed time, a
    # traced one in wall-clock time.
    common = [n for n in both if n not in untraced.undecided]
    traced_s = sum(first.scaled[n] + second.scaled[n] for n in common) / 2
    metrics["trace.overhead_s"] = (traced_s - sum(untraced.scaled[n] for n in common), "s")
    write_spans(workload, span_lists[0])
    return passes, metrics, mismatched


def write_spans(workload, spans) -> None:
    with open(os.path.join(WORK, f"{workload}-spans.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["id", "name", "parent", "start_s", "end_s", "returned"],
                "spans": [
                    [i, tracing.NAMES[s[0]], s[1], round(s[2], 7), round(s[3], 7), s[4]]
                    for i, s in enumerate(spans)
                ],
            },
            fh,
        )


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(load("workloads.json")["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "unifan")):
        print(f"perfbench: no unifan sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    signal.signal(signal.SIGALRM, _stop)
    folder = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return measure(args, folder)
    finally:
        shutil.rmtree(folder)


def measure(args, folder) -> int:
    setup_times = []
    for _ in range(load("workloads.json")["setup_repeats"]):
        before, speed = probes(), Speed()
        start = perf_counter()
        with speed:
            mods, fans = setup(args.workload, args.seed, folder)
        seconds = perf_counter() - start
        setup_times.append(speed.scale(seconds, before + probes()))

    passes: list[Outcome] = []
    began = perf_counter()
    while True:
        passes.append(run_pass(args.workload, mods, fans, load("digests.json")[args.workload]))
        elapsed = perf_counter() - began
        # A traced run compares its traced passes with a warm untraced one.
        if args.trace and len(passes) == 2 or elapsed + elapsed / len(passes) > args.seconds:
            break

    mismatched = []
    if args.trace:
        traced, metrics, mismatched = traced_run(args.workload, mods, fans, passes[-1])
        passes += traced
    else:
        metrics = end_to_end(passes, setup_times)

    errors = [e for p in passes for e in p.errors]
    errors += [f"{name}: call counts differ between traced passes" for name in mismatched]
    undecided = sorted({n for p in passes for n in p.undecided})
    attempted = sum(len(p.times) for p in passes)
    failed_fans = sum(len(p.errors) for p in passes)
    failed_share = (failed_fans + sum(len(p.undecided) for p in passes)) / attempted

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes of {len(fans)} fans")
    print("measured pass wall_s " + " ".join(f"{p.wall:.4g}" for p in passes))
    print("scaled pass wall_s " + " ".join(f"{sum(p.scaled.values()):.4g}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed_share:.6g} ratio (undecided fans counted as failed)")
    for name in undecided:
        print(f"undecided within {workload_config(args.workload)['per_fan_limit_s']} s at reference speed: {name}")
    for e in errors:
        print(f"ERROR {e}")
    correct = not errors
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed_fans,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
