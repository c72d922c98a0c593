"""The benchmark's own tests.

Run from the repository root (about two minutes)::

    python3 -m pytest perfbench/tests -q

Each test runs the benchmark command on the shortest run of the
``correction-storm`` workload (``--seconds 0``: the workload's minimum op
count).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SLICE = ["--workload", "correction-storm", "--seed", "3", "--seconds", "0"]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def copy_bench(root):
    """A checkout in ``root`` holding only the benchmark and its spec."""
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_emitted_with_its_unit(trace, section):
    proc = run_bench(*SLICE, "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        # Every metric is also printed by name with its unit.
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(metric['unit'])}$",
                         proc.stdout, re.M), name


def test_tampered_expected_outcome_fails_the_run(tmp_path):
    copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    expected_path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text(encoding="utf-8"))
    expected["scenarios"]["gpt4/omp2cuda/randomAccess"][0] = "success"
    expected_path.write_text(json.dumps(expected), encoding="utf-8")

    proc = run_bench(*SLICE, "--trace", "0", cwd=tmp_path)

    assert proc.returncode != 0
    result = last_json(proc)
    assert result["correct"] is False
    # The tampered scenario fails once in every pass, nothing else fails.
    assert result["failed"] == result["attempted"] // 8 >= 1
    fraction = re.search(r"^\s+failed_fraction\s+(\S+) ratio", proc.stdout, re.M)
    assert fraction is not None and float(fraction.group(1)) > 0


def test_exits_nonzero_without_the_program(tmp_path):
    copy_bench(tmp_path)

    proc = run_bench(*SLICE, "--trace", "0", cwd=tmp_path)

    assert proc.returncode != 0
    assert proc.stdout == ""
