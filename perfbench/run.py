"""Scenario benchmark for geored.

    python3 perfbench/run.py --workload {dirac-shell,reduction-flow,nested-jacobi}
        --seed N --seconds S --trace {0,1} [--out FILE]

Run from a checkout holding ``src/geored``.  The load is a closed loop: one
worker process, one client, one thread, one verification after another (see
``workloads.py`` for the lists and why each workload exists).  Every
verification is judged fail-closed (``verify.py``); a failure is counted and
the run goes on.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time of
one pass over the verification list; ``setup_s``, the median time from
spawning a fresh interpreter to the point its first verification would
start; and ``peak_rss_mb`` of the measuring process.  ``--trace 1`` reports
the per-layer metrics of ``spans.py`` from a separate run, plus dual-scalar
microbenchmarks on the pure-Python backend and on the compiled one, built
from the committed ``_dual_cy.c`` into a temporary copy of the package.

BLAS and OpenMP are held to one thread, and scenario outputs go to a
temporary directory under ``.bench_build/`` that is removed at the end.  The
last line of standard output is the JSON result; the line before it, after
``perfbench-info``, records the active dual backend, the Python and numpy
versions, ``nproc``, the failures and the determinism digest.  ``--out``
also writes both to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 9
RUN_LIMIT_S = 170  # a run must end within 180 s

DEADLINE = time.monotonic() + RUN_LIMIT_S


class BenchError(RuntimeError):
    pass


def _child_env(pythonpath: Path, tmpdir: Path) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=str(pythonpath),
        TMPDIR=str(tmpdir),
    )
    return env


def _remaining() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def _child(argv, env) -> tuple[dict, float]:
    """Run a child interpreter; return its last stdout line as JSON and the
    monotonic time it was spawned at."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, *argv],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=_remaining(),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{' '.join(argv[:2])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1]), spawned


def _worker(mode, args, env, outdir=None):
    argv = [str(HERE / "worker.py"), mode, "--workload", args.workload, "--seed", str(args.seed)]
    if outdir is not None:
        argv += ["--seconds", str(args.seconds), "--outdir", str(outdir)]
    out, spawned = _child(argv, env)
    out["setup_s"] = out["ready"] - spawned
    return out


def _build_compiled(tmp: Path) -> tuple[Path | None, str]:
    """Copy the package and compile ``_dual_cy.c`` into the copy with gcc;
    return the directory to put on PYTHONPATH, or None and the reason."""
    c_file = SRC / "geored" / "_dual_cy.c"
    gcc = shutil.which("gcc")
    if not c_file.is_file() or gcc is None:
        return None, "no _dual_cy.c" if gcc else "no gcc"
    pkg = tmp / "compiled" / "geored"
    shutil.copytree(
        SRC / "geored", pkg, ignore=shutil.ignore_patterns("*.so", "*.c", "*.pyx", "__pycache__")
    )
    target = pkg / f"_dual_cy{sysconfig.get_config_var('EXT_SUFFIX')}"
    proc = subprocess.run(
        [gcc, "-O2", "-shared", "-fPIC", f"-I{sysconfig.get_paths()['include']}",
         str(c_file), "-o", str(target)],
        env=dict(os.environ, TMPDIR=str(tmp)),
        capture_output=True,
        text=True,
        timeout=_remaining(),
    )
    if proc.returncode != 0:
        return None, f"gcc failed: {proc.stderr.strip()[-500:]}"
    return pkg.parent, ""


def _dual_metrics(tmp: Path) -> tuple[dict, dict]:
    """dualnum.* microbenchmarks per backend; None marks an unavailable one."""
    metrics, status = {}, {}
    compiled_path, reason = _build_compiled(tmp)
    for backend, path in (("python", SRC), ("compiled", compiled_path)):
        result = None
        if path is not None:
            result, _ = _child(
                [str(HERE / "dualkernels.py"), "--backend", backend], _child_env(path, tmp)
            )
        status[backend] = "ok" if result else f"unavailable: {reason}"
        for key in ("flat_op_ns", "nested_op_ns", "grad16_us"):
            metrics[f"dualnum.{key}.{backend}"] = result[key] if result else None
    return metrics, status


def _measure(args, tmp: Path) -> tuple[dict, dict]:
    env = _child_env(SRC, tmp)
    outdir = tmp / "out"
    if args.trace:
        out = _worker("trace", args, env, outdir)
        metrics = out["metrics"]
        dual, status = _dual_metrics(tmp)
        metrics.update(dual)
        out["dual_backends"] = status
    else:
        setups = [_worker("probe", args, env)["setup_s"] for _ in range(SETUP_PROBES)]
        out = _worker("run", args, env, outdir)
        setups.append(out["setup_s"])
        metrics = {
            "wall_s": statistics.median(out["times"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        out["setup_samples"] = setups
        out["passes"] = len(out["times"])
    return out, metrics


UNIT_SUFFIXES = (("_ns", "ns"), ("_us", "us"), ("_mb", "MB"), ("_s", "s"), ("_ratio", "ratio"))


def _unit(name: str) -> str:
    parts = name.split(".")
    last = parts[-2] if parts[-1] in ("python", "compiled") else parts[-1]
    if last == "s":
        return "s"
    return next((unit for suffix, unit in UNIT_SUFFIXES if last.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geored scenario benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the record to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "geored" / "cli.py").is_file():
        print(f"error: no geored sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        out, metrics = _measure(args, tmp)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = out["failed"] == 0 and out["deterministic"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **out["env"],
        "digest": out["digest"],
        "deterministic": out["deterministic"],
        "fail_ratio": out["failed"] / out["attempted"],
        "failures": out["failures"],
        **{k: out[k] for k in ("absent", "dual_backends", "passes", "setup_samples") if k in out},
    }
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in sorted(metrics.items())},
    }
    for failure in out["failures"]:
        print(f"FAIL {failure}")
    print(f"{args.workload} seed={args.seed}: {out['attempted']} attempted, "
          f"{out['failed']} failed, backend={info['backend']}, digest={info['digest'][:16]}")
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
