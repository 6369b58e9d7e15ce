"""Dual-scalar microbenchmarks for one backend; prints one JSON line.

    PYTHONPATH=<dir holding the geored package> python3 perfbench/dualkernels.py --backend python|compiled

Three kernels: chained flat arithmetic, a 16-dimensional gradient of a
mass-shell-like field (16 seeded evaluations), and nested second-derivative
seeds through the same field.  Times are medians of ``REPEATS``; per-operation
times divide by the operation count of one evaluation, taken by counting
pure-Python dual constructions, so both backends share one denominator.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
from collections import Counter

from spans import counting_duals

REPEATS = 5
CHAIN_ITERS = 20000
GRAD_ITERS = 100
NESTED_ITERS = 50


def constraint_like(z):
    # the shape of the two-particle mass-shell function: Minkowski dot
    # products, a quotient and a quadratic interaction term
    eta = (1.0, -1.0, -1.0, -1.0)

    def dot(u, v):
        return sum(e * a * b for e, a, b in zip(eta, u, v))

    x1, p1 = z[0:4], z[4:8]
    x2, p2 = z[8:12], z[12:16]
    r = [(a - b) / 2.0 for a, b in zip(x1, x2)]
    P = [a + b for a, b in zip(p1, p2)]
    xi = dot(r, r) - dot(P, r) ** 2 / dot(P, P)
    return dot(p1, p1) - 1.0 + 0.1 * xi


def _point(seed):
    rng = random.Random(seed)
    z = [rng.uniform(0.5, 1.5) for _ in range(16)]
    z[4] += 2.0
    z[12] += 2.0
    return z


def chain(Dual, n_iter):
    u, v, acc = Dual(1.3, 1.0), Dual(0.7, 0.0), Dual(0.0, 0.0)
    for _ in range(n_iter):
        acc = acc + (u * v - 3.0) / (v * v + 1.0) + u * u - 2.0 / u
    return acc


def gradient16(Dual, n_iter, z):
    for _ in range(n_iter):
        for i in range(16):
            constraint_like([Dual(z[j], 1.0 if j == i else 0.0) for j in range(16)])


def nested(Dual, n_iter, z):
    for _ in range(n_iter):
        for i in range(8):
            constraint_like([
                Dual(Dual(z[j], 1.0 if j == i else 0.0), Dual(1.0 if j == i else 0.0, 0.0))
                for j in range(16)
            ])


def _median_time(fn, *args):
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(*args)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _ops_per_call(fn, *args):
    """Outermost-layer dual operations made by one call, counted on the
    pure-Python scalar (argument construction excluded)."""
    from geored._dual_py import Dual

    counts = Counter()
    with counting_duals(counts):
        fn(Dual, *args)
    return counts["dualnum.ops"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("python", "compiled"), required=True)
    args = parser.parse_args()
    if args.backend == "python":
        from geored._dual_py import Dual
    else:
        from geored._dual_cy import Dual

    z_grad, z_nested = _point(0), _point(1)
    chain_ops = _ops_per_call(chain, 1) - 3  # u, v, acc are arguments
    field_ops = _ops_per_call(lambda D: constraint_like([D(x, 0.0) for x in z_grad])) - 16

    t_chain = _median_time(chain, Dual, CHAIN_ITERS)
    t_grad = _median_time(gradient16, Dual, GRAD_ITERS, z_grad)
    t_nested = _median_time(nested, Dual, NESTED_ITERS, z_nested)
    print(json.dumps({
        "backend": args.backend,
        "flat_op_ns": t_chain / (CHAIN_ITERS * chain_ops) * 1e9,
        "grad16_us": t_grad / GRAD_ITERS * 1e6,
        "nested_op_ns": t_nested / (NESTED_ITERS * 8 * field_ops) * 1e9,
    }))


if __name__ == "__main__":
    main()
