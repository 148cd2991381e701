"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kronmc  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from kronmc.errors import NumericalError  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# small grids with denser graphs, so the estimates stay meaningful
TINY = {
    "exact-250": functools.partial(workloads.exact, n=30, p_s=50.0, graph_p=0.2, mu=0.1),
    "ridge-stations": functools.partial(workloads.ridge, n=12, l=20, p_s=50.0, d=20,
                                        nmse_ceiling=0.2),
    "cli-fit": functools.partial(workloads.cli_fit, n=30, p_s=50.0, graph_p=0.2, mu=0.1,
                                 nmse_ceiling=0.3),
}

COMPUTED = [m["name"] for m in BENCH["per_layer"]
            if m["unit"] in ("count", "MB", "GFLOP")]


@pytest.fixture
def tiny(monkeypatch):
    for name, factory in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, factory)


def _main(capsys, name, trace, seed=3):
    status = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return status, json.loads(lines[-1]), lines


def test_benchmark_json_names_the_workloads_and_their_reasons():
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    listed = {w["name"]: w["why"] for w in BENCH["workloads"]}
    defined = {name: factory().why for name, factory in workloads.WORKLOADS.items()}
    assert listed == defined


@pytest.mark.parametrize("name", list(TINY))
def test_workload_output_schema(tiny, capsys, name):
    status, result, lines = _main(capsys, name, 0)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("machine: ") for line in lines)
    assert any("failed_frac" in line for line in lines)


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_every_layer_and_exact_counts(tiny, capsys, name):
    status, first, _ = _main(capsys, name, 1)
    assert status == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    _, second, _ = _main(capsys, name, 1, seed=4)
    for metric in COMPUTED:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric
    # the wrappers are gone again
    assert kronmc.solvers.kron_submatrix is kronmc.kernels.kron_submatrix
    assert kronmc.kkmcex_fit.__module__ == "kronmc.solvers"
    assert not hasattr(kronmc.kkmcex_fit, "__wrapped__")
    assert not hasattr(vars(kronmc.SamplingSet)["row_indices0"].fget, "__wrapped__")


def _spoil_call(monkeypatch, module, attr, spoil, call=2):
    """Make the ``call``-th call of ``module.attr`` return ``spoil(result)``."""
    original = getattr(module, attr)
    calls = []

    def spoiled(*args, **kwargs):
        calls.append(1)
        result = original(*args, **kwargs)
        return spoil(result) if len(calls) == call else result

    monkeypatch.setattr(module, attr, spoiled)


@pytest.mark.parametrize("name, attr", [("exact-250", "kkmcex_predict"),
                                        ("ridge-stations", "rrmcex_predict")])
def test_wrong_estimate_counts_as_failed(tiny, capsys, monkeypatch, name, attr):
    _spoil_call(monkeypatch, kronmc, attr, lambda est: est + 10.0 * abs(est).max())
    status, result, lines = _main(capsys, name, 0)
    assert status == 1
    assert result["correct"] is False and result["failed"] == 1
    assert any("FAILED realization 1: CheckFailed: nmse" in line for line in lines)


def test_optimality_identity_catches_a_wrong_dual_vector(tiny, capsys, monkeypatch):
    def perturbed(model):
        return kronmc.KkmcexModel(model.kernel, model.sampling, model.mu,
                                  model.dual_coeffs * (1 + 1e-6))

    _spoil_call(monkeypatch, kronmc, "kkmcex_fit", perturbed)
    status, result, lines = _main(capsys, "exact-250", 0)
    assert status == 1 and result["failed"] == 1
    assert any("optimality residual" in line for line in lines)


def test_cli_prediction_must_match_saved_model(tiny, capsys, monkeypatch):
    original = kronmc.bench.save_matrix_csv
    writes = []

    def shifted(path, m):
        if str(path).endswith(".pred.csv"):
            writes.append(path)
            if len(writes) == 2:
                m = m + 1e-3 * abs(m).max()
        return original(path, m)

    monkeypatch.setattr(kronmc.bench, "save_matrix_csv", shifted)
    status, result, lines = _main(capsys, "cli-fit", 0)
    assert status == 1 and result["failed"] == 1
    assert any("differs from the saved model" in line for line in lines)


def test_library_error_counts_as_failed_and_run_continues(tiny, capsys, monkeypatch):
    original = kronmc.kkmcex_fit
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalError("positive-definite solve failed: forced")
        return original(*args, **kwargs)

    monkeypatch.setattr(kronmc, "kkmcex_fit", failing)
    status, result, lines = _main(capsys, "exact-250", 0)
    assert status == 1
    assert result["failed"] == 1 and result["attempted"] >= 2
    assert any("NumericalError" in line for line in lines)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-250",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
