import ast
import dataclasses
import itertools
import json
import math
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from geored.cli import (
    REGISTRY,
    CsvTable,
    ScenarioConfig,
    list_scenarios,
    main,
    run,
    run_all,
    _make_config,
)
from geored.errors import ConfigError, UnknownScenario


def test_list_scenarios_contents_and_order():
    listing = list_scenarios()
    names = [item["name"] for item in listing]
    assert names == sorted(names)
    for expected in (
        "calogero-from-matrix",
        "dirac-two-particle-noncommuting-positions",
        "deformed-poincare-jacobi",
        "riccati-classical",
        "qriccati-n3",
    ):
        assert expected in names
    for item in listing:
        assert item["refs"], f"{item['name']} lists no reference topics"
        assert item["description"]


def test_run_riccati_classical_passes(tmp_path):
    report = run(_make_config("riccati-classical", output_dir=str(tmp_path)))
    assert report.status == "PASS"
    assert report.metrics["max_dev"] < 1e-8
    payload = json.loads((tmp_path / "riccati-classical" / "report.json").read_text())
    assert set(payload) == {"name", "status", "metrics", "artifacts", "config_echo"}
    for artifact in payload["artifacts"]:
        assert (tmp_path / "riccati-classical" / artifact).exists()


def test_run_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run(ScenarioConfig(name="nope"))


def test_unknown_tolerance_override_rejected(tmp_path):
    config = _make_config("riccati-classical", output_dir=str(tmp_path))
    config.tolerances = {"bogus_metric": 1.0}
    with pytest.raises(ConfigError) as err:
        run(config)
    assert "bogus_metric" in err.value.fields


def test_deterministic_reports(tmp_path):
    a = run(_make_config("qriccati-n3", seed=42, output_dir=str(tmp_path / "a")))
    b = run(_make_config("qriccati-n3", seed=42, output_dir=str(tmp_path / "b")))
    assert a.status == b.status == "PASS"
    bytes_a = (tmp_path / "a" / "qriccati-n3" / "report.json").read_bytes()
    bytes_b = (tmp_path / "b" / "qriccati-n3" / "report.json").read_bytes()
    assert bytes_a == bytes_b
    assert a.artifacts == b.artifacts == ["ambient.csv", "diagram.json", "scenario.json"]
    for artifact in a.artifacts:
        bytes_a = (tmp_path / "a" / "qriccati-n3" / artifact).read_bytes()
        assert bytes_a == (tmp_path / "b" / "qriccati-n3" / artifact).read_bytes(), artifact


def test_tightened_tolerance_fails(tmp_path):
    config = _make_config("riccati-classical", output_dir=str(tmp_path))
    config.tolerances = {"max_dev": 1e-12 * 1e-6}
    report = run(config)
    assert report.status == "FAIL"


def _json_keys(payload) -> set:
    if isinstance(payload, dict):
        return set(payload).union(*map(_json_keys, payload.values()))
    if isinstance(payload, list):
        return set().union(*map(_json_keys, payload))
    return set()


@pytest.mark.parametrize(
    "name, limit",
    [
        ("radial-l", 1e-12),
        ("radial-E", 1e-12),
        ("calogero-from-matrix", 1e-12),
        # the free quotient flow is polynomial: its deviation is rounding, 5.3e-15
        ("so3-quotient", 1e-15),
        ("riccati-classical", 1e-12),
    ],
)
def test_catalog_gate_is_the_only_diagram_verdict(tmp_path, name, limit):
    # a max_dev gate below the measured deviation fails the run, and no
    # artifact beside the report states a verdict or a diagram limit of its own
    report = run(_make_config(name, output_dir=str(tmp_path), tolerances={"max_dev": limit}))
    assert report.status == "FAIL" and report.metrics["max_dev"] > limit
    artifacts = [p for p in sorted((tmp_path / name).glob("*.json")) if p.name != "report.json"]
    assert artifacts
    for path in artifacts:
        keys = _json_keys(json.loads(path.read_text()))
        assert "ok" not in keys and "diagram" not in keys, (path.name, keys)


def test_main_list_and_run(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "deformed-poincare-jacobi" in out
    code = main(
        ["run", "--scenario", "deformed-poincare-jacobi", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_main_unknown_scenario_exit_code(tmp_path, capsys):
    code = main(["run", "--scenario", "missing", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
@pytest.mark.parametrize("command", ["run", "run-all"])
def test_bad_rk45_tol_is_a_config_error(tmp_path, monkeypatch, capsys, command, tol):
    from geored import cli as cli_mod

    spec = cli_mod.REGISTRY["riccati-classical"]
    monkeypatch.setattr(cli_mod, "REGISTRY", {spec.name: spec})
    argv = [command, f"--rk45-tol={tol}", "--out-dir", str(tmp_path)]
    if command == "run":
        argv += ["--scenario", spec.name]
    assert main(argv) == 2
    assert "rk45_tol" in capsys.readouterr().err
    assert not (tmp_path / spec.name).exists()


def test_bad_rk45_tol_in_config_files_is_a_config_error(tmp_path, capsys):
    # a JSON string is no tolerance; in a configs dir, a bad value in any
    # scenario's file stops run-all before the first scenario runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "deformed-poincare-jacobi", "rk45_tol": "1e-9"}))
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "one")]) == 2
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "riccati-classical.json").write_text(json.dumps({"rk45_tol": 0}))
    out = tmp_path / "all"
    assert main(["run-all", "--configs-dir", str(configs), "--out-dir", str(out)]) == 2
    assert "rk45_tol" in capsys.readouterr().err
    assert not (tmp_path / "one").exists() and not out.exists()


@pytest.mark.parametrize("key, value", [("seed", "abc"), ("rk45_tol", True)])
@pytest.mark.parametrize("command", ["run", "run-all"])
def test_mistyped_config_file_value_is_a_config_error(tmp_path, monkeypatch, capsys, command, key, value):
    # a string is no seed, and a JSON true is no tolerance (Python reads it as 1)
    from geored import cli as cli_mod

    spec = cli_mod.REGISTRY["riccati-classical"]
    monkeypatch.setattr(cli_mod, "REGISTRY", {spec.name: spec})
    configs = tmp_path / "configs"
    configs.mkdir()
    cfg = configs / f"{spec.name}.json"
    out = tmp_path / "out"
    if command == "run":
        cfg.write_text(json.dumps({"scenario": spec.name, key: value}))
        argv = ["run", "--config", str(cfg), "--out-dir", str(out)]
    else:
        cfg.write_text(json.dumps({key: value}))
        argv = ["run-all", "--configs-dir", str(configs), "--out-dir", str(out)]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


_LOOSE_CONFIGS = [
    # a tolerance override looser than the registered gate
    ("qriccati-pauli", {"rk45_tol": 1e-6, "tolerances": {"coset_dev": 1.0, "closed_form_dev": 1.0}}, "coset_dev"),
    # a tolerance override that is not a finite number
    ("riccati-classical", {"tolerances": {"max_dev": "1e-9"}}, "max_dev"),
    ("riccati-classical", {"tolerances": {"max_dev": math.nan}}, "max_dev"),
    # an unknown top-level key
    ("radial-l", {"sead": 3}, "sead"),
    # a param the scenario does not read
    ("dirac-two-particle", {"params": {"lamda": 0.5}}, "lamda"),
    ("radial-l", {"params": {"lambda": 0.5}}, "lambda"),
    ("dirac-two-particle", {"params": {"lambda": True}}, "lambda"),
    ("wlc-dynamical-gauge", {"params": {"m1": 10**400}}, "m1"),
]


@pytest.mark.parametrize(
    "name, cfg, field", _LOOSE_CONFIGS, ids=[f"{case[0]}:{case[2]}" for case in _LOOSE_CONFIGS]
)
@pytest.mark.parametrize("command", ["run", "run-all"])
def test_loose_config_file_is_a_config_error(tmp_path, monkeypatch, capsys, command, name, cfg, field):
    # configuration fails closed: nothing runs, and the error names the field
    from geored import cli as cli_mod

    monkeypatch.setattr(cli_mod, "REGISTRY", {name: cli_mod.REGISTRY[name]})
    configs = tmp_path / "configs"
    configs.mkdir()
    path = configs / f"{name}.json"
    out = tmp_path / "out"
    if command == "run":
        path.write_text(json.dumps({"scenario": name, **cfg}))
        argv = ["run", "--config", str(path), "--out-dir", str(out)]
    else:
        path.write_text(json.dumps(cfg))
        argv = ["run-all", "--configs-dir", str(configs), "--out-dir", str(out)]
    assert main(argv) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_run_checks_a_built_config(tmp_path):
    # the library entry point checks what it is given, as the CLI does
    loose = [
        ScenarioConfig("riccati-classical", tolerances={"max_dev": 1.0}, output_dir=str(tmp_path)),
        ScenarioConfig("riccati-classical", tolerances={"max_dev": math.inf}, output_dir=str(tmp_path)),
        ScenarioConfig("radial-l", params={"m1": 1.0}, output_dir=str(tmp_path)),
    ]
    for config in loose:
        with pytest.raises(ConfigError):
            run(config)
    assert not list(tmp_path.iterdir())


def test_two_particle_params_are_the_only_params(tmp_path):
    from geored import cli as cli_mod

    params = {"lambda": 0.2, "m1": 1.1, "m2": 1.9}
    readers = {name for name in REGISTRY if REGISTRY[name].params}
    assert readers == {
        "dirac-two-particle",
        "dirac-two-particle-noncommuting-positions",
        "wlc-dynamical-gauge",
    }
    for name in REGISTRY:
        config = ScenarioConfig(name, params=dict(params), output_dir=str(tmp_path))
        if REGISTRY[name].params:
            assert set(REGISTRY[name].params) == set(params)
            cli_mod._check_config(config)
        else:
            with pytest.raises(ConfigError):
                cli_mod._check_config(config)


def test_config_file_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "scenario": "deformed-poincare-jacobi",
                "seed": 7,
                "out_dir": str(tmp_path / "out"),
            }
        )
    )
    code = main(["run", "--config", str(cfg_path)])
    assert code == 0
    report = json.loads(
        (tmp_path / "out" / "deformed-poincare-jacobi" / "report.json").read_text()
    )
    assert report["config_echo"]["seed"] == 7


def test_every_registered_scenario_has_gates():
    for name, spec in REGISTRY.items():
        assert spec.tolerances, f"{name} declares no gated tolerance"


def test_run_all_empty_config_dir_uses_defaults(tmp_path):
    # run-all over an empty configs dir behaves like plain defaults; a
    # single fast scenario is enough to prove the fallback path works
    empty = tmp_path / "configs"
    empty.mkdir()
    from geored import cli as cli_mod

    spec = cli_mod.REGISTRY["deformed-poincare-jacobi"]
    saved = cli_mod.REGISTRY
    try:
        cli_mod.REGISTRY = {"deformed-poincare-jacobi": spec}
        summary = run_all(
            output_dir=str(tmp_path / "out"), configs_dir=str(empty)
        )
    finally:
        cli_mod.REGISTRY = saved
    assert summary["counts"] == {"pass": 1, "fail": 0, "error": 0}
    assert (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "metrics, status",
    [
        ({"a": 0.5, "b": 0.5}, "PASS"),
        ({"a": float("nan"), "b": 0.5}, "FAIL"),
        ({"a": 0.5}, "FAIL"),
        ({"a": float("nan")}, "FAIL"),
        ({"a": 0.5, "b": float("-inf")}, "FAIL"),
    ],
)
def test_gates_fail_closed_on_nan_or_missing_metric(tmp_path, monkeypatch, metrics, status):
    from geored import cli as cli_mod

    spec = cli_mod.ScenarioSpec(
        "stub-gates",
        "stub whose gated metrics may be NaN or absent",
        ("test stub",),
        {"a": 1.0, "b": 1.0},
        lambda config, rng: (dict(metrics), {}),
    )
    monkeypatch.setitem(cli_mod.REGISTRY, spec.name, spec)
    report = run(_make_config(spec.name, output_dir=str(tmp_path)))
    assert report.status == status


def test_run_all_records_crashed_scenario_and_goes_on(tmp_path, monkeypatch, capsys):
    from geored import cli as cli_mod

    def crash(config, rng):
        raise RuntimeError("stub scenario crashed")

    stub = cli_mod.ScenarioSpec("aaa-crash", "stub that raises", ("test stub",), {"a": 1.0}, crash)
    real = cli_mod.REGISTRY["deformed-poincare-jacobi"]
    monkeypatch.setattr(cli_mod, "REGISTRY", {stub.name: stub, real.name: real})
    out = tmp_path / "out"
    code = main(["run-all", "--out-dir", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert re.fullmatch(r"aaa-crash: ERROR \(\d+\.\d\ds\)", lines[0])
    assert re.fullmatch(r"deformed-poincare-jacobi: PASS \(\d+\.\d\ds\)", lines[1])
    assert lines[2] == "pass=1 fail=0 error=1"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counts"] == {"pass": 1, "fail": 0, "error": 1}
    crashed, passed = summary["reports"]
    assert crashed["status"] == "ERROR"
    assert crashed["error"] == {"type": "RuntimeError", "message": "stub scenario crashed"}
    assert "stub scenario crashed" in (out / "aaa-crash" / "traceback.txt").read_text()
    assert passed["name"] == "deformed-poincare-jacobi" and passed["status"] == "PASS"
    assert "error" not in passed
    # the status lines leave the files as a single-scenario run writes them
    single = tmp_path / "single"
    assert main(["run", "--scenario", real.name, "--out-dir", str(single)]) == 0
    for rel in ("report.json", "structure.json"):
        written = (out / real.name / rel).read_bytes()
        assert written == (single / real.name / rel).read_bytes()


def test_error_run_writes_only_its_report_and_traceback(tmp_path, monkeypatch):
    # the constraint matrix is computed before the flow raises, and still no
    # artifact of the scenario is written
    from geored import dirac

    def crash(*args, **kwargs):
        raise RuntimeError("stub flow crashed")

    monkeypatch.setattr(dirac, "constrained_flow", crash)
    report = run(_make_config("dirac-two-particle", output_dir=str(tmp_path)))
    assert report.status == "ERROR" and report.artifacts == ["traceback.txt"]
    written = sorted(path.name for path in (tmp_path / "dirac-two-particle").iterdir())
    assert written == ["report.json", "traceback.txt"]


def _unwritable_json(config, rng):
    return {"a": 0.5}, {"fine.json": {"x": 1.0}, "array.json": np.zeros(2)}


def _raising_rows():
    yield (1.0, 2.0)
    raise RuntimeError("row generator failed")


def _unwritable_csv(config, rng):
    return {"a": 0.5}, {"fine.json": {"x": 1.0}, "x.csv": CsvTable(("t", "y"), _raising_rows())}


def _unconvertible_metric(config, rng):
    return {"a": None}, {"fine.json": {"x": 1.0}}


@pytest.mark.parametrize(
    "runner, error_type",
    [
        (_unwritable_json, "TypeError"),
        (_unwritable_csv, "RuntimeError"),
        (_unconvertible_metric, "TypeError"),
    ],
    ids=["json-ndarray", "csv-rows-raise", "none-metric"],
)
def test_unwritable_artifacts_or_metrics_are_an_error_and_run_all_goes_on(
    tmp_path, monkeypatch, capsys, runner, error_type
):
    # artifacts written before the failure are removed, so the directory
    # holds what every ERROR run leaves
    from geored import cli as cli_mod

    stub = cli_mod.ScenarioSpec("aaa-unwritable", "stub", ("test stub",), {"a": 1.0}, runner)
    real = cli_mod.REGISTRY["deformed-poincare-jacobi"]
    monkeypatch.setattr(cli_mod, "REGISTRY", {stub.name: stub, real.name: real})
    out = tmp_path / "out"
    assert main(["run-all", "--out-dir", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counts"] == {"pass": 1, "fail": 0, "error": 1}
    failed, passed = summary["reports"]
    assert failed["status"] == "ERROR" and failed["error"]["type"] == error_type
    assert failed["artifacts"] == ["traceback.txt"] and failed["metrics"] == {}
    held = sorted(path.name for path in (out / stub.name).iterdir())
    assert held == ["report.json", "traceback.txt"]
    assert passed["status"] == "PASS"


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call opens a file for writing: ``write_text`` or
    ``write_bytes``, or an ``open`` whose mode writes or is not a string
    literal."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # the builtin takes the path first; Path.open takes the mode first
    modes = call.args[1:] if isinstance(call.func, ast.Name) else call.args
    modes = [*modes, *(kw.value for kw in call.keywords if kw.arg == "mode")]
    return any(
        not isinstance(mode, ast.Constant)
        or (isinstance(mode.value, str) and bool(set(mode.value) & set("wax+")))
        for mode in modes
    )


def test_only_cli_writes_files():
    from geored import cli

    package = pathlib.Path(cli.__file__).parent
    writers = sorted(
        path.name
        for path in package.glob("*.py")
        if any(
            isinstance(node, ast.Call) and _opens_for_writing(node)
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert writers == ["cli.py"]


# -- scenario accumulators keep a NaN --------------------------------------------


def _poison(monkeypatch, owner, name, nth, value=None, when=None):
    """Replace the ``nth`` result of ``owner.name`` among the calls that
    ``when`` selects (all by default) by ``value(result)`` (NaN by default)."""
    original = getattr(owner, name)
    count = itertools.count(1)

    def wrapped(*args, **kwargs):
        out = original(*args, **kwargs)
        if (when is None or when(*args)) and next(count) == nth:
            return math.nan if value is None else value(out)
        return out

    monkeypatch.setattr(owner, name, wrapped)


def _nan_state(traj):
    states = traj.states.copy()
    states[2] = math.nan
    return dataclasses.replace(traj, states=states)


def _nan_grid_row(columns):
    columns = columns.copy()
    columns[3] = math.nan
    return columns


_NAN_CASES = [
    ("relativistic-free-particle", "energy_max", "lagsym", "energy", 5, None, None),
    (
        "relativistic-free-particle",
        "kernel_contains_gap",
        "lagsym",
        "kernel_basis",
        2,  # the first call is the connection's validation
        lambda basis: [np.full(8, math.nan)] + basis[1:],
        None,
    ),
    ("relativistic-free-particle", "darboux_gap", "ConnectionFrame", "bracket", 2, None, None),
    ("relativistic-free-particle", "jacobi_max", "lagsym", "jacobi_residual", 2, None, None),
    (
        "relativistic-free-particle",
        "casimir_max",
        "ConnectionFrame",
        "bracket",
        2,
        None,
        lambda frame, f, g: f.label == "sqrt",  # the Lagrangian's field
    ),
    ("dirac-two-particle", "constraint_kill_max", "DiracFrame", "bracket", 3, None, None),
    (
        "dirac-two-particle",
        "generator_bracket_gap",
        "DiracFrame",
        "canonical",
        3,  # each pair calls it once itself and once through its bracket
        None,
        # the kill loop's brackets call canonical too, on coordinates and
        # constraints; this selects the generator loop's pairs
        lambda frame, f, g: "poincare_generators" in getattr(f, "__qualname__", ""),
    ),
    (
        "dirac-two-particle-noncommuting-positions",
        "canonical_max_abs",
        "DiracFrame",
        "canonical",
        2,  # the canonical table is filled first
        None,
        None,
    ),
    ("dirac-two-particle", "flow_constraint_drift", "dirac", "constrained_flow", 1, _nan_state, None),
    (
        "wlc-dynamical-gauge",
        "boost_residual_over_omega",
        "dirac",
        "wlc_residual",
        2,
        lambda rep: {**rep, "residual": math.nan},
        None,
    ),
    ("deformed-poincare-jacobi", "jacobi_max", "dirac", "jacobi_residual", 2, None, None),
    (
        "kernel-crosscheck",
        "dp5_order_gap",
        "Dopri45Stepper",
        "step",
        2,
        lambda out: (out[0], np.full_like(out[1], math.nan), out[2]),
        None,
    ),
    (
        "kernel-crosscheck",
        "corpus_rel_dev",
        "calc",
        "gradient",
        3,
        lambda g: np.full_like(g, math.nan),
        None,
    ),
    (
        "frames-suite",
        "projector_gap",
        "frames",
        "frame_tensor",
        2,
        lambda R: SimpleNamespace(R=np.full((4, 4), math.nan)),
        None,
    ),
    # Z at the fourth step state of the unitary flow
    ("qriccati-pauli", "closed_form_dev", "qriccati", "extract_Z", 4, lambda Z: np.full_like(Z, math.nan), None),
    # the fourth grid state of the one column pass that projects the unitary flow
    ("qriccati-n3", "coset_dev", "QuotientMap", "columns", 1, _nan_grid_row, None),
]


@pytest.mark.parametrize(
    "scenario, metric, owner, name, nth, value, when",
    _NAN_CASES,
    ids=[f"{case[0]}:{case[1]}" for case in _NAN_CASES],
)
def test_scenario_accumulators_keep_nan(tmp_path, monkeypatch, scenario, metric, owner, name, nth, value, when):
    # a NaN met after the first finite value must reach the gate, not vanish
    # under the built-in max
    from geored import calc, dirac, flow, frames, lagsym, qriccati, reduce

    owners = {
        "lagsym": lagsym,
        "dirac": dirac,
        "calc": calc,
        "frames": frames,
        "qriccati": qriccati,
        "DiracFrame": dirac.DiracFrame,
        "ConnectionFrame": lagsym.ConnectionFrame,
        "Dopri45Stepper": flow.Dopri45Stepper,
        "QuotientMap": reduce.QuotientMap,
    }
    _poison(monkeypatch, owners[owner], name, nth, value, when)
    report = run(_make_config(scenario, output_dir=str(tmp_path)))
    assert report.error is None
    assert math.isnan(report.metrics[metric])
    assert report.status == "FAIL"


def test_nan_darboux_bracket_on_the_identity_block_fails(tmp_path, monkeypatch):
    # a diagonal {Q, P} entry of the third Darboux frame, whose declared
    # table is the identity, reads NaN
    from geored import lagsym

    _poison(
        monkeypatch,
        lagsym.ConnectionFrame,
        "bracket",
        3,
        when=lambda frame, f, g: (f.label, g.label) == ("Q2", "P2"),
    )
    report = run(_make_config("relativistic-free-particle", output_dir=str(tmp_path)))
    assert math.isnan(report.metrics["darboux_gap"])
    assert report.status == "FAIL"


def test_relativistic_free_particle_rejects_an_invalid_connection(tmp_path, monkeypatch):
    # negative control: twice the projector is not idempotent, and the run
    # must stop at the connection's validation rather than gate its brackets
    from geored import lagsym

    good = lagsym.relativistic_connection()
    doubled = lagsym.ConnectionField(lambda z: [[2.0 * a for a in row] for row in good.at(z)])
    monkeypatch.setattr(lagsym, "relativistic_connection", lambda *args: doubled)
    report = run(_make_config("relativistic-free-particle", output_dir=str(tmp_path)))
    assert report.status == "ERROR"
    assert report.error["type"] == "ConnectionInvalid"


# -- a planted defect fails its own gate and no other ---------------------------


def _perturb_fifth_order_weight(monkeypatch):
    # 1e-9 on the first weight of the fifth-order solution drops the local
    # order measured at h = 0.1 and 0.05 from 6 to about 2.5
    from geored import flow

    weights = flow._DP_B.copy()
    weights[0] += 1e-9
    monkeypatch.setattr(flow, "_DP_B", weights)


def _published_det_as_measured(monkeypatch):
    # the printed closed form in place of the first-principles determinant
    from geored import dirac

    original = dirac.published_constraint_matrix

    def published(frame):
        report = original(frame)
        return {**report, "measured_det": report["published_det"]}

    monkeypatch.setattr(dirac, "published_constraint_matrix", published)


@pytest.mark.parametrize(
    "scenario, gate, plant",
    [
        ("kernel-crosscheck", "dp5_order_gap", _perturb_fifth_order_weight),
        ("dirac-two-particle", "det_gap", _published_det_as_measured),
    ],
    ids=["kernel-crosscheck:dp5_order_gap", "dirac-two-particle:det_gap"],
)
def test_planted_defect_fails_its_gate(tmp_path, monkeypatch, scenario, gate, plant):
    limits = REGISTRY[scenario].tolerances
    plant(monkeypatch)
    report = run(_make_config(scenario, output_dir=str(tmp_path)))
    assert report.status == "FAIL"
    assert [key for key, limit in limits.items() if not report.metrics[key] <= limit] == [gate]


# -- each point's bracket frame is built once ----------------------------------


@pytest.mark.parametrize(
    "scenario, owner, at_first, count",
    [
        ("wlc-dynamical-gauge", "DiracFrame", False, 1),
        # one frame gives both position tables
        ("dirac-two-particle-noncommuting-positions", "DiracFrame", False, 1),
        # the kill loop and the first flow step at the first sampled point
        ("dirac-two-particle", "DiracFrame", True, 2),
        # the Darboux frame at z0 also gives the Jacobi, Casimir and
        # coordinate tables, and the {x, x} prefactor fit reads the last
        ("relativistic-free-particle", "ConnectionFrame", True, 1),
    ],
)
def test_float_point_frames_built_per_run(tmp_path, monkeypatch, scenario, owner, at_first, count):
    from geored import dirac, lagsym
    from geored.dualnum import is_dual

    cls = {"DiracFrame": dirac.DiracFrame, "ConnectionFrame": lagsym.ConnectionFrame}[owner]
    init, points = cls.__init__, []

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if not any(is_dual(u) for u in self.z):
            points.append([float(u) for u in self.z])

    monkeypatch.setattr(cls, "__init__", counted)
    report = run(_make_config(scenario, output_dir=str(tmp_path)))
    assert report.status == "PASS"
    built = points.count(points[0]) if at_first else len(points)
    assert built == count


def test_wlc_run_solves_for_the_multipliers_once(tmp_path, monkeypatch):
    # eleven world-line residuals at one frame share its flow direction
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    report = run(_make_config("wlc-dynamical-gauge", seed=0, output_dir=str(tmp_path)))
    assert report.status == "PASS"
    assert len(calls) == 1
