"""Every public top-level function and class of ``src/geored`` is reached, or
is kept on ``KEPT`` with the reason it stays.

A name is reached when code that is itself reached refers to it as a name,
an attribute or an import.  Reach starts at the module-level statements of
``src/geored`` (the scenario registry, the imports, the ``__main__`` hook)
and at the code of ``perfbench/*.py``.  A string there (a tracer target)
does not count: the tracer wraps a target if it exists and reads 0 calls if
it does not.  A name that only tests use is not reached: no verdict of
``run-all`` or of the benchmark sees it.  Names are matched by spelling
across modules, so two definitions that share a name are reached together.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

KEPT = {
    # paper claims that wait for a gated metric (ROADMAP item 8)
    "kinematical_gauge_model": "second gauge of the two-particle model",
    "sample_on_shell_kinematical": "on-shell points of the second gauge",
    "poisson_compatibility": "compatibility of the regular and presymplectic brackets",
    "so3_fixed_energy": "SO(3) quotient restricted to a fixed energy",
    "so3_fixed_l": "SO(3) quotient restricted to a fixed angular momentum",
    "radial_convex": "radial reduction with a convex potential",
    "time_orientation": "time orientation of a reference frame",
    "cartan_one_form": "Cartan one-form of a Lagrangian",
    "el_field": "Euler-Lagrange field of a regular Lagrangian",
    # helpers that the Riccati chart switch (item 6) and the Poisson
    # reduction check (item 7) will call
    "project_projective": "Riccati diagram on the projective line",
    "riccati_zeta_coefficients": "Riccati equation in the chart y/x",
    "pb_regular": "Poisson bracket of a regular Lagrangian",
    "mechanical_lagrangian": "ambient model of the Poisson reduction check",
    # inlining these into the tests that use them would only move code
    "conserved_drift": "drift of a first integral along a trajectory",
    "entries": "the catalog's ready-to-verify scenarios",
    # a paper claim that waits for a gated metric (ROADMAP item 8); the
    # benchmark traces it by name
    "eigen_decompose_tracked": "continuous Calogero eigen-branches of the matrix flow",
}


def _refs(nodes) -> set:
    out = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name.split(".")[-1])
    return out


def _bench_refs() -> set:
    return _refs(ast.parse(path.read_text()) for path in sorted((ROOT / "perfbench").glob("*.py")))


def _library():
    """Top-level definitions by name, each with the module that defines it
    and the names its body refers to; and the names that module-level code
    and perfbench refer to."""
    defs, roots = {}, _bench_refs()
    for path in sorted((ROOT / "src" / "geored").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                mods, body = defs.setdefault(node.name, (set(), set()))
                mods.add(path.stem)
                body |= _refs([node])
            else:
                roots |= _refs([node])
    return defs, roots


def _reach(defs, start) -> set:
    reached = set(start) & defs.keys()
    frontier = list(reached)
    while frontier:
        for name in defs[frontier.pop()][1] & defs.keys():
            if name not in reached:
                reached.add(name)
                frontier.append(name)
    return reached


def test_every_public_name_is_reached_or_kept():
    defs, roots = _library()
    kept = _reach(defs, roots | KEPT.keys())
    unreached = sorted(
        f"{'/'.join(sorted(defs[name][0]))}.{name}"
        for name in defs
        if not name.startswith("_") and name not in kept
    )
    assert not unreached, f"reached by no verdict: delete, or list in KEPT: {unreached}"


def test_kept_names_exist_and_are_unreached():
    defs, roots = _library()
    gone = sorted(name for name in KEPT if name not in defs)
    assert not gone, f"KEPT names no longer defined: {gone}"
    now_used = sorted(KEPT.keys() & _reach(defs, roots))
    assert not now_used, f"KEPT names now reached; drop them from KEPT: {now_used}"
