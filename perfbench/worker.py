"""Child process of ``perfbench/run.py``: one closed-loop client on one
thread, issuing one verification after another.

    python3 perfbench/worker.py {probe,run,trace} --workload W --seed N [--seconds S --outdir D]

``probe`` stops at the point the first verification would start and prints
that moment (``time.monotonic``, one clock for every process on the host),
so the parent can time set-up from its own spawn.  ``run`` repeats the
workload's verification list until ``--seconds`` have passed.  ``trace``
spends half the time untraced and half traced, then makes one pass that
counts dual constructions.  Every mode prints one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter

import numpy as np

from geored import cli, dualnum

import spans
import verify
import workloads


def _digest(items, outcomes) -> str:
    h = hashlib.sha256()
    for item, outcome in zip(items, outcomes):
        h.update(json.dumps([item.label(), item.seed, outcome.body], sort_keys=True).encode())
    return h.hexdigest()


class Passes:
    """Repeated passes over one verification list, with their wall times,
    digests and failures."""

    def __init__(self, items, outdir):
        self.items, self.outdir = items, outdir
        self.times: list[float] = []
        self.digests: list[str] = []
        self.attempted = 0
        self.failures: list[tuple] = []
        self.first: list = []  # outcomes of the first pass
        self.scenario_times: dict = {}

    def one(self, tracer=None):
        outcomes = []
        start = time.perf_counter()
        for k, item in enumerate(self.items):
            if tracer is not None:
                tracer.request = k
            outcomes.append(verify.execute(item, self.outdir))
        self.times.append(time.perf_counter() - start)
        self.digests.append(_digest(self.items, outcomes))
        self.attempted += len(outcomes)
        for item, outcome in zip(self.items, outcomes):
            if outcome.problems:
                self.failures.append((item.label(), outcome.problems))
            if outcome.wall_time is not None:
                self.scenario_times.setdefault(item.scenario, []).append(outcome.wall_time)
        if not self.first:
            self.first = outcomes

    def until(self, seconds, tracer=None, after_each=None):
        """Run passes, at least one, until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            self.one(tracer)
            if after_each is not None:
                after_each()
            if time.perf_counter() - start >= seconds:
                return

    def cross_check(self):
        """Checks kept outside the timed region: the central-difference
        Hessian oracle on the first pass."""
        for item, outcome in zip(self.items, self.first):
            if outcome.hessian is not None:
                problems = verify.central_problems(item, outcome.hessian)
                if problems:
                    self.failures.append((item.label(), problems))

    def summary(self) -> dict:
        return {
            "times": self.times,
            "digest": self.digests[0],
            "deterministic": len(set(self.digests)) == 1,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": [f"{label}: {'; '.join(p)}" for label, p in self.failures[:20]],
        }


def _env() -> dict:
    return {
        "backend": dualnum.DUAL_BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _median_metrics(per_pass: list[dict]) -> dict:
    keys = sorted({k for d in per_pass for k in d})
    return {k: statistics.median_low(d.get(k, 0) for d in per_pass) for k in keys}


def _trace(items, args) -> dict:
    plain = Passes(items, args.outdir)
    plain.until(args.seconds / 2)

    tracer = spans.Tracer()
    traced = Passes(items, args.outdir)
    per_pass: list[dict] = []

    def reduce_pass():
        recorded, counters = tracer.take()
        flat = {}
        for name, agg in spans.aggregate(recorded).items():
            flat[f"{name}.calls"] = agg["calls"]
            flat[f"{name}.self_s"] = agg["self_s"]
        attempts = counters["flow.rk45.attempts"]
        accepted = counters["flow.rk45.accepted"]
        flat["flow.rk45.attempts"] = attempts
        flat["flow.rk45.rejected"] = attempts - accepted
        flat["flow.rk45.accept_ratio"] = accepted / attempts if attempts else 0.0
        per_pass.append(flat)

    tracer.install()
    try:
        traced.until(args.seconds / 2, tracer, reduce_pass)
    finally:
        tracer.remove()

    counted = Passes(items, args.outdir)
    counts = Counter()
    try:
        with spans.counting_duals(counts):
            counted.one()
    except ImportError:
        tracer.absent.append("dualnum.ops")
    # constructions of the pure-Python scalar measure nothing under another backend
    ops = counts["dualnum.ops"] if dualnum.DUAL_BACKEND == "python" else None

    metrics = {}
    for name in spans.TARGETS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    metrics.update(_median_metrics(per_pass))
    for name in cli.REGISTRY:
        times = plain.scenario_times.get(name)
        metrics[f"cli.scenario.{name}.s"] = statistics.median(times) if times else 0.0
    metrics["dualnum.ops"] = ops
    metrics["trace.overhead_ratio"] = statistics.median(traced.times) / statistics.median(
        plain.times
    )
    runs = [plain, traced, counted]
    plain.cross_check()
    return {
        "metrics": metrics,
        "absent": tracer.absent,
        "attempted": sum(p.attempted for p in runs),
        "failed": sum(len(p.failures) for p in runs),
        "failures": [f for p in runs for f in p.summary()["failures"]][:20],
        "digest": plain.digests[0],
        "deterministic": len({d for p in runs for d in p.digests}) == 1,
        "passes": [len(p.times) for p in runs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--outdir", default=None)
    args = parser.parse_args(argv)

    items = workloads.verifications(args.workload, args.seed)
    ready = time.monotonic()
    if args.mode == "probe":
        print(json.dumps({"ready": ready}))
        return 0
    if args.mode == "run":
        passes = Passes(items, args.outdir)
        passes.until(args.seconds)
        passes.cross_check()
        out = passes.summary()
    else:
        out = _trace(items, args)
    out.update(
        ready=ready,
        env=_env(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
