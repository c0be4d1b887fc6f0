"""The ``--compare`` halves of the refactor-check tools in ``tools/``."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
EPS = float(np.finfo(float).eps)


def _load(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def quadrature_digest():
    return _load("quadrature_digest")


@pytest.fixture(scope="module")
def solver_digest():
    return _load("solver_digest")


def _compare(module, tmp_path, old, new):
    paths = []
    for name, records in (("old.jsonl", old), ("new.jsonl", new)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        paths.append(str(path))
    return module.compare(*paths)


def _quadrature_records(e2=-1.5e-4, scan=-0.401):
    return [{"case": "1s atomic A=1 delta=0.10 FULL", "e1": (-1e-3).hex(), "e2": e2.hex(),
             "scan": scan.hex(), "abs_e1": 1e-3, "abs_e2": 2e-4, "abs_scan": 0.6012},
            {"case": "2p atomic A=1 delta=0.10 FULL", "e1": (-1e-2).hex(), "e2": (3e-3).hex(),
             "scan": (-0.032).hex(), "abs_e1": 1e-2, "abs_e2": 4e-3, "abs_scan": 0.239}]


class TestQuadratureDigestCompare:
    def test_identical_files_pass(self, quadrature_digest, tmp_path, capsys):
        assert _compare(quadrature_digest, tmp_path, _quadrature_records(),
                        _quadrature_records()) == 0
        out = capsys.readouterr().out
        assert "e2: identical=2 over_64_eps=0" in out
        assert "scan: identical=2 over_64_eps=0" in out

    def test_a_different_case_list_fails(self, quadrature_digest, tmp_path, capsys):
        assert _compare(quadrature_digest, tmp_path, _quadrature_records(),
                        _quadrature_records()[:1]) == 1
        assert "do not hold the same cases" in capsys.readouterr().out

    @pytest.mark.parametrize("multiple, code", [(60.0, 0), (70.0, 1)])
    def test_a_move_beyond_64_eps_of_the_absolute_integral_fails(
            self, quadrature_digest, tmp_path, capsys, multiple, code):
        # abs_e2 = 2e-4 is the scale: a move of 60 of its eps passes, 70 fails
        moved = _quadrature_records(-1.5e-4 + multiple * EPS * 2e-4)
        assert _compare(quadrature_digest, tmp_path, _quadrature_records(), moved) == code
        assert f"failures={code}" in capsys.readouterr().out

    @pytest.mark.parametrize("multiple, code", [(60.0, 0), (70.0, 1)])
    def test_a_scan_value_moved_beyond_64_eps_of_its_scale_fails(
            self, quadrature_digest, tmp_path, capsys, multiple, code):
        # abs_scan = 0.6012 is the scale of the first scan value
        moved = _quadrature_records(scan=-0.401 + multiple * EPS * 0.6012)
        assert _compare(quadrature_digest, tmp_path, _quadrature_records(), moved) == code
        out = capsys.readouterr().out
        assert f"scan: identical=1 over_64_eps={code}" in out
        assert f"failures={code}" in out


def _solver_records(energy=-0.5, estimate=1e-12, nodes=0, converged=True):
    return [{"case": "default 1s atomic A=1 g=1 delta=0.00", "verdict": "bound",
             "energy": energy.hex(), "estimate": estimate, "converged": converged,
             "nodes": nodes, "order": 40},
            {"case": "default 3s atomic A=1 g=1 delta=0.80", "verdict": "unbound",
             "text": "no bound state"}]


class TestSolverDigestCompare:
    def test_identical_files_pass(self, solver_digest, tmp_path, capsys):
        assert _compare(solver_digest, tmp_path, _solver_records(), _solver_records()) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_a_different_case_list_fails(self, solver_digest, tmp_path, capsys):
        assert _compare(solver_digest, tmp_path, _solver_records(), _solver_records()[::-1]) == 1
        assert "do not hold the same cases" in capsys.readouterr().out

    @pytest.mark.parametrize("change", [
        {"verdict": "unbound", "text": "no bound state"},
        {"nodes": 1},
        {"converged": False},
    ], ids=["verdict", "nodes", "converged"])
    def test_a_flipped_field_fails(self, solver_digest, tmp_path, capsys, change):
        new = _solver_records()
        new[0] = {**new[0], **change}
        assert _compare(solver_digest, tmp_path, _solver_records(), new) == 1
        assert "DIFFERS default 1s" in capsys.readouterr().out

    @pytest.mark.parametrize("shift, code", [(1.9e-12, 0), (2.1e-12, 1)])
    def test_an_energy_shift_beyond_the_two_estimates_fails(
            self, solver_digest, tmp_path, capsys, shift, code):
        # both estimates are 1e-12, so shifts up to their sum 2e-12 pass
        new = _solver_records(energy=-0.5 + shift)
        assert _compare(solver_digest, tmp_path, _solver_records(), new) == code
        assert f"failures={code}" in capsys.readouterr().out
