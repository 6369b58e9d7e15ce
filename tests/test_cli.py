import json

import pytest

from geored.cli import (
    REGISTRY,
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
    csv_a = (tmp_path / "a" / "qriccati-n3" / "coset.csv").read_bytes()
    csv_b = (tmp_path / "b" / "qriccati-n3" / "coset.csv").read_bytes()
    assert csv_a == csv_b


def test_tightened_tolerance_fails(tmp_path):
    config = _make_config("riccati-classical", output_dir=str(tmp_path))
    config.tolerances = {"max_dev": 1e-12 * 1e-6}
    report = run(config)
    assert report.status == "FAIL"


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
    assert summary["counts"] == {"pass": 1, "fail": 0, "partial": 0, "error": 0}
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
        lambda config, rng, outdir: (dict(metrics), [], False),
    )
    monkeypatch.setitem(cli_mod.REGISTRY, spec.name, spec)
    report = run(_make_config(spec.name, output_dir=str(tmp_path)))
    assert report.status == status


def test_run_all_records_crashed_scenario_and_goes_on(tmp_path, monkeypatch, capsys):
    from geored import cli as cli_mod

    def crash(config, rng, outdir):
        raise RuntimeError("stub scenario crashed")

    stub = cli_mod.ScenarioSpec("aaa-crash", "stub that raises", ("test stub",), {"a": 1.0}, crash)
    real = cli_mod.REGISTRY["deformed-poincare-jacobi"]
    monkeypatch.setattr(cli_mod, "REGISTRY", {stub.name: stub, real.name: real})
    out = tmp_path / "out"
    code = main(["run-all", "--out-dir", str(out)])
    assert code == 1
    assert "error=1" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["counts"] == {"pass": 1, "fail": 0, "partial": 0, "error": 1}
    crashed, passed = summary["reports"]
    assert crashed["status"] == "ERROR"
    assert crashed["error"] == {"type": "RuntimeError", "message": "stub scenario crashed"}
    assert "stub scenario crashed" in (out / "aaa-crash" / "traceback.txt").read_text()
    assert passed["name"] == "deformed-poincare-jacobi" and passed["status"] == "PASS"
    assert "error" not in passed
    assert (out / "deformed-poincare-jacobi" / "report.json").exists()
