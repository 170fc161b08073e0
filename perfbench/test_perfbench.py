"""Self-test of the benchmark at reduced size.

Run from the repository root with ``python3 -m pytest perfbench``.  Each case
runs ``run.py --small`` for about a second of operation time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench-work" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace, section):
    result = result_of(bench("--small", "--workload", workload, "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _copy_tree(name: str) -> Path:
    """A scratch root holding BENCHMARK.json and a copy of perfbench/."""
    root = SCRATCH / name
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root


def test_wrong_golden_hash_counts_as_failure():
    root = _copy_tree("wrong_golden")
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    golden_path = root / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    golden["small/oracle_validate/validate_seed=1000"]["validate.txt"] = "0" * 64
    golden_path.write_text(json.dumps(golden))

    result = result_of(bench("--small", "--workload", "oracle_validate", "--trace", "0",
                             cwd=root))
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    record = root / ".perfbench-work" / "results" / "oracle_validate-seed1-trace0-small.json"
    assert json.loads(record.read_text())["failed_frac"] > 0


def test_refuses_to_run_without_the_package():
    proc = bench("--workload", "dense_sweep", "--trace", "0", cwd=_copy_tree("bare"))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
