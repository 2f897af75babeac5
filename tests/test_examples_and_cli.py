"""Smoke tests: the examples and the CLI run end to end."""

import os
import subprocess
import sys

import pytest

EXAMPLES = ["quickstart.py", "crash_consistency.py",
            "nosql_batch_tradeoff.py", "io_tracing.py",
            "flash_wear_and_gc.py"]
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(path, timeout=240, env_extra=None):
    env = dict(os.environ)
    env["REPRO_QUICK"] = "1"
    env["REPRO_SCALE"] = "1024"
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, path], capture_output=True,
                          text=True, timeout=timeout, env=env,
                          cwd=REPO_ROOT)


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    result = run_script(os.path.join(REPO_ROOT, "examples", script))
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_quickstart_tells_the_story():
    result = run_script(os.path.join(REPO_ROOT, "examples",
                                     "quickstart.py"))
    assert "every acked write survived: True" in result.stdout
    assert "barriers OFF" in result.stdout


def test_crash_consistency_verdicts():
    result = run_script(os.path.join(REPO_ROOT, "examples",
                                     "crash_consistency.py"), timeout=300)
    assert "fast-unsafe consistent=False" in result.stdout
    assert "fast-safe consistent=True" in result.stdout


def test_cli_list():
    result = subprocess.run([sys.executable, "-m", "repro", "list"],
                            capture_output=True, text=True, timeout=60,
                            cwd=REPO_ROOT)
    assert result.returncode == 0
    assert "table1" in result.stdout
    assert "figure5" in result.stdout


def test_cli_unknown_experiment():
    result = subprocess.run([sys.executable, "-m", "repro", "nope"],
                            capture_output=True, text=True, timeout=60,
                            cwd=REPO_ROOT)
    assert result.returncode == 2


def test_cli_runs_one_experiment():
    env = dict(os.environ)
    env["REPRO_QUICK"] = "1"
    result = subprocess.run([sys.executable, "-m", "repro", "table2"],
                            capture_output=True, text=True, timeout=500,
                            env=env, cwd=REPO_ROOT)
    assert result.returncode == 0
    assert "Table 2" in result.stdout
    assert "(paper)" in result.stdout


@pytest.mark.parametrize("argv", [
    ["table1", "--gray-faults"],
    ["table1", "--devices"],
    ["table1", "--metrics-interval", "abc"],
    ["scaling", "--bogus"],
], ids=["gray-faults-no-value", "devices-no-value",
        "metrics-interval-not-a-number", "scaling-unknown-flag"])
def test_cli_rejects_malformed_flags(argv):
    env = dict(os.environ)
    env["REPRO_QUICK"] = "1"
    result = subprocess.run([sys.executable, "-m", "repro"] + argv,
                            capture_output=True, text=True, timeout=120,
                            env=env, cwd=REPO_ROOT)
    assert result.returncode == 2
    assert "usage:" in result.stderr
    assert "Traceback" not in result.stderr
