"""Every public top-level function and class of ``src/geored`` is reached, or
is kept on ``KEPT`` with the reason it stays; and every option (a defaulted
parameter or dataclass field) is passed by some call, or is kept on
``OPTIONS_KEPT`` with the reason it stays.

A name is reached when code that is itself reached refers to it as a name,
an attribute or an import.  Reach starts at the module-level statements of
``src/geored`` (the scenario registry, the imports, the ``__main__`` hook)
and at the code of ``perfbench/*.py``.  A string there (a tracer target)
does not count: the tracer wraps a target if it exists and reads 0 calls if
it does not.  A name that only tests use is not reached: no verdict of
``run-all`` or of the benchmark sees it.  Names are matched by spelling
across modules, so two definitions that share a name are reached together.

An option is passed when a call in ``src/``, ``perfbench/`` or ``tests/``
whose callee has its name (the class name for a dataclass field or an
``__init__`` parameter; ``cls`` inside the class) gives it by keyword, gives
``**kwargs``, or reaches its position with positional or ``*args``
arguments.  Options of top-level functions and of the methods and fields of
top-level classes count; nested functions and lambdas capture values, not
options.  An option that only its default ever reaches is a constant.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

KEPT = {
    # paper claims that wait for a gated metric (ROADMAP item 8)
    "laboratory_gauge": "laboratory time covector of the two-particle model",
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


OPTIONS_KEPT = {
    # physics inputs
    "catalog.radial_time_dependent_consistency.t0": "start of the compared time span",
    "catalog.radial_time_dependent_consistency.t1": "end of the compared time span",
    "lagsym.newton_wigner_fields.m": "particle mass",
    "lagsym.newton_wigner_fields.c": "speed of light",
    # instances are called by value, c(z, tau), which a match by name cannot see
    "dirac.Constraint.__call__.tau": "evolution parameter of a constraint call",
    # the run diagnostics of ROADMAP item 5 fill it
    "reduce.DiagramReport.events": "events met along a diagram check",
}


def _callee(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_dataclass(cls) -> bool:
    return any(
        _callee(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in cls.decorator_list
    )


def _defaulted(fn, skip_self: bool):
    """(name, position) of each defaulted parameter; keyword-only ones have
    no position."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if skip_self else 0 :]
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _class_options(path, cls):
    fields = []
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            static = any(_callee(d) == "staticmethod" for d in item.decorator_list)
            callee = cls.name if item.name == "__init__" else item.name
            for name, pos in _defaulted(item, not static):
                yield f"{path.stem}.{cls.name}.{item.name}.{name}", callee, name, pos
        elif isinstance(item, ast.AnnAssign) and _is_dataclass(cls):
            value = item.value
            if isinstance(value, ast.Call) and any(k.arg == "init" for k in value.keywords):
                continue
            fields.append(item.target.id)
            if value is not None:
                yield f"{path.stem}.{cls.name}.{item.target.id}", cls.name, item.target.id, len(fields) - 1


def _options():
    """(qualified name, callee name, parameter name, position) of every
    option of ``src/geored``."""
    out = []
    for path in sorted((ROOT / "src" / "geored").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out += [
                    (f"{path.stem}.{node.name}.{name}", node.name, name, pos)
                    for name, pos in _defaulted(node, False)
                ]
            elif isinstance(node, ast.ClassDef):
                out += _class_options(path, node)
    return out


def _calls(tree, into: dict, owner: str | None = None) -> None:
    """Record, per callee name, the positional count, the position of the
    first ``*args`` and the keywords of every call in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            _calls(node, into, node.name)
            continue
        if isinstance(node, ast.Call) and _callee(node.func) is not None:
            name = _callee(node.func)
            star = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), None)
            keywords = {k.arg for k in node.keywords}  # None for **kwargs
            into.setdefault(owner if name == "cls" and owner else name, []).append(
                (len(node.args) if star is None else star, star, keywords)
            )
        _calls(node, into, owner)


def _unpassed_options():
    calls: dict = {}
    for folder in ("src/geored", "perfbench", "tests"):
        for path in sorted((ROOT / folder).glob("*.py")):
            _calls(ast.parse(path.read_text()), calls)

    def passed(callee, name, pos):
        return any(
            name in keywords
            or None in keywords
            or (pos is not None and (count > pos or (star is not None and star <= pos)))
            for count, star, keywords in calls.get(callee, ())
        )

    return sorted(qual for qual, callee, name, pos in _options() if not passed(callee, name, pos))


def test_every_option_is_passed_or_kept():
    unpassed = [qual for qual in _unpassed_options() if qual not in OPTIONS_KEPT]
    assert not unpassed, f"passed by no call: make a constant, or list in OPTIONS_KEPT: {unpassed}"


def test_kept_options_exist_and_are_unpassed():
    defined = {qual for qual, *_ in _options()}
    gone = sorted(OPTIONS_KEPT.keys() - defined)
    assert not gone, f"OPTIONS_KEPT names no longer defined: {gone}"
    now_passed = sorted(OPTIONS_KEPT.keys() - set(_unpassed_options()))
    assert not now_passed, f"OPTIONS_KEPT names now passed; drop them: {now_passed}"
