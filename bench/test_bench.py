"""Self-tests of the benchmark in `bench/`; collected by a plain `pytest` run."""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import rhomin  # noqa: E402
import worker  # noqa: E402
from refclock import WINDOW, RefClock, reference_loop  # noqa: E402


def test_refclock_counts_reference_loops_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = RefClock()
    clock.start()
    wall0, cpu0 = clock.read()
    for _ in range(3000):
        reference_loop()
    wall1, cpu1 = clock.read()
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(clock.samples) > WINDOW
    # 3000 loops cost about 3000 reference loops, whatever the host's speed
    assert 1500 < wall1 - wall0 < 6000
    assert 1500 < cpu1 - cpu0 < 6000


@pytest.mark.parametrize("workload", ["theorem", "certify"])
def test_traced_and_untraced_passes_agree(workload):
    plain = worker.run_pass(rhomin, workload, 7, False, small=True)
    traced = worker.run_pass(rhomin, workload, 7, True, small=True)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["attempted"] == traced["attempted"] == len(plain["latencies_ms"])
    assert plain["counts"] == traced["counts"]
    assert "layers" not in plain
    for out in (plain, traced):
        assert len(out["latencies_ref"]) == out["attempted"]
        assert out["wall_ref"] >= sum(out["latencies_ref"]) > 0
    # the wrappers are gone again once the pass ends
    assert not hasattr(rhomin.search.verify_theorem, "__wrapped__")
    assert not hasattr(rhomin.exactpoly.CertifiedRoot.refine, "__wrapped__")
    layers = traced["layers"]
    if workload == "theorem":
        assert layers["search.verify_theorem.calls"] == 2
        # calls between modules that import by name are seen
        assert layers["graphs.diameter.under.families.spec_diameter"] > 0
        assert layers["families.enumerate_quipus.open.specs"] > 0
    else:
        assert layers["exactpoly.rho_certified_graph.calls"] > 0
        assert layers["transfer.t_compose_rho.calls"] > 0


def test_wrong_theorem_reference_counts_as_failure():
    wrong = {**worker.THEOREM_WINNERS, 4: 4}
    out = worker.run_pass(rhomin, "theorem", 7, False, small=True, winners=wrong)
    assert out["attempted"] == 2
    assert out["failed"] == 1
    assert "expected 4" in out["failures"][0]


def test_wrong_eigenvalue_reference_counts_as_failure(monkeypatch):
    shifted = worker.float_rho
    monkeypatch.setattr(worker, "float_rho", lambda n, edges: shifted(n, edges) + 0.5)
    out = worker.run_pass(rhomin, "certify", 7, False, small=True)
    assert out["failed"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "theorem", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
