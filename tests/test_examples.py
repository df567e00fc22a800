"""Smoke tests: each README walkthrough command runs to completion and
prints the artifacts the README promises."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def run(*args, timeout=240):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, env=env, cwd=ROOT)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def readme_quickstart():
    """The README's Quickstart python block."""
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = f.read()
    return re.search(r"## Quickstart\s+```python\n(.*?)```", readme,
                     re.S).group(1)


class TestExamples:
    def test_quickstart(self):
        losses = [float(x) for x in
                  run("-c", readme_quickstart()).split()]
        assert len(losses) == 10
        assert losses[-1] < losses[0]

    def test_plan_cluster_job(self):
        out = run("-m", "repro", "plan", "mixtral-8x7b", "64", "h800")
        assert "SP+EP" in out
        assert "scale-up ratio R" in out
        assert "over Megatron-LM" in out

    def test_fp8_training(self):
        out = run("-m", "repro", "verify", "--smoke")
        assert re.search(r"-fp8-\S+ +ok", out)
        assert ", 0 failing" in out

    def test_overlap_explorer(self, tmp_path):
        trace = tmp_path / "trace.json"
        out = run("-m", "repro", "train", "2", "--trace", str(trace))
        assert "comm-volume audit" in out
        assert '"sim' in trace.read_text()

    def test_production_run(self, tmp_path):
        out = run("-m", "repro", "train", "16", "--faults", "--dir",
                  str(tmp_path))
        assert "restarts             : [9]" in out
        assert "rollbacks            : [13]" in out
