"""Reduced-size smoke test of the ledger harness.

Run from the repository root (tier-1 does not collect this directory)::

    python -m pytest perfledger/test_smoke.py

Each case runs ``run.py`` the way a benchmark run does, on cells shrunk
by ``--scale`` and for a fraction of a second.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(
    workload: str, seed: int, trace: int = 0, seconds: float = 0.5, cwd: Path = ROOT
) -> Tuple[List[str], Dict[str, object]]:
    out = subprocess.run(
        [
            sys.executable,
            str(cwd / "perfledger" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
            "--scale",
            "0.02",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digests(lines: List[str]) -> List[str]:
    return [line.split()[-1] for line in lines if line.strip().startswith("digest ")]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_benchmark_json(workload: str, trace: int) -> None:
    _, result = run(workload, seed=1, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    assert isinstance(metrics, dict)
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", ["paper-cell", "megacell-100k"])
def test_digest_repeats_and_seed_changes_inputs(workload: str) -> None:
    first, _ = run(workload, seed=1)
    again, _ = run(workload, seed=1)
    other, _ = run(workload, seed=2)
    assert digests(first) and digests(first) == digests(again)
    assert set(digests(first)).isdisjoint(digests(other))


def test_service_inputs_follow_seed() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import servicebench
    finally:
        del sys.path[:2]
    a, b = servicebench.make_inputs(1), servicebench.make_inputs(1)
    c = servicebench.make_inputs(2)
    assert a.gets == b.gets and a.updates == b.updates
    assert a.gets != c.gets and a.updates != c.updates


def test_without_the_program_exits_nonzero_and_prints_no_result(
    tmp_path: Path,
) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfledger", ignore=shutil.ignore_patterns("__pycache__"))
    with pytest.raises(subprocess.CalledProcessError) as failure:
        run("paper-cell", seed=1, cwd=tmp_path)
    assert failure.value.stdout == ""
