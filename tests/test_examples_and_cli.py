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


def assert_usage_error(command):
    """``command`` exits 2 with an argparse usage line, no traceback."""
    env = dict(os.environ)
    env["REPRO_QUICK"] = "1"
    result = subprocess.run(command, capture_output=True, text=True,
                            timeout=120, env=env, cwd=REPO_ROOT)
    assert result.returncode == 2
    assert "usage:" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("argv", [
    ["table1", "--gray-faults"],
    ["table1", "--devices"],
    ["table1", "--metrics-interval", "abc"],
    ["scaling", "--bogus"],
    ["torture", "--seed"],
    ["torture", "--seed", "x"],
    ["chaos", "--sed", "3"],
    ["failover", "--ops"],
    ["integrity", "--bogus"],
    ["trace", "table1", "--bogus"],
    ["explain", "linkbench", "--top", "x"],
    ["regress", "--tps-tol", "x"],
    ["profile", "--speed", "--ops"],
    ["monitor", "figure5", "--interval"],
    ["torture", "--smoke", "--ops", "0"],
], ids=["gray-faults-no-value", "devices-no-value",
        "metrics-interval-not-a-number", "scaling-unknown-flag",
        "torture-seed-no-value", "torture-seed-not-a-number",
        "chaos-misspelled-flag", "failover-ops-no-value",
        "integrity-unknown-flag", "trace-unknown-flag",
        "explain-top-not-a-number", "regress-tps-tol-not-a-number",
        "profile-speed-ops-no-value", "monitor-interval-no-value",
        "torture-smoke-zero-ops"])
def test_cli_rejects_malformed_flags(argv):
    assert_usage_error([sys.executable, "-m", "repro"] + argv)


@pytest.mark.parametrize("argv", [
    ["--min-tracks"],
    ["t.json", "--min-tracks"],
    ["--explain", "--monitor", "r.json"],
], ids=["min-tracks-no-value-no-file", "min-tracks-no-value",
        "two-report-modes"])
def test_validator_rejects_malformed_flags(argv):
    assert_usage_error([sys.executable, "-m", "repro.telemetry.validate"]
                       + argv)


@pytest.mark.parametrize("argv, seed", [
    (["--smoke"], 11),
    (["--smoke", "--seed", "0"], 0),
    (["--seed", "0", "--smoke"], 0),
    (["--smoke", "--seed", "5"], 5),
], ids=["default", "seed-0-after", "seed-0-before", "seed-5"])
def test_chaos_smoke_seed_is_taken_as_given(monkeypatch, argv, seed):
    from repro.bench import chaos
    calls = []
    monkeypatch.setattr(chaos, "smoke",
                        lambda **kwargs: calls.append(kwargs) or 0)
    assert chaos.main(argv) == 0
    assert calls == [{"ops": None, "seed": seed}]


@pytest.mark.parametrize("argv, tolerances", [
    ([], (0.02, 0.05)),
    (["--smoke"], (0.25, 0.25)),
    (["--tps-tol", "0.1", "--smoke"], (0.1, 0.25)),
    (["--smoke", "--tps-tol", "0.1"], (0.1, 0.25)),
    (["--p99-tol", "0", "--smoke"], (0.25, 0.0)),
    (["--tps-tol", "0.3", "--p99-tol", "0.4"], (0.3, 0.4)),
], ids=["default", "smoke", "tps-tol-before-smoke", "tps-tol-after-smoke",
        "p99-tol-zero", "both-given"])
def test_regress_explicit_tolerance_wins(monkeypatch, tmp_path, argv,
                                         tolerances):
    from repro.bench import regress
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}")
    fresh_calls, compare_calls = [], []

    def run_fresh(baseline, smoke=False):
        fresh_calls.append(smoke)
        return {}

    def compare(baseline, fresh, tps_tol, p99_tol):
        compare_calls.append((tps_tol, p99_tol))
        return [], []

    monkeypatch.setattr(regress, "run_fresh", run_fresh)
    monkeypatch.setattr(regress, "compare", compare)
    assert regress.main(argv + ["--baseline", str(baseline)]) == 0
    assert fresh_calls == ["--smoke" in argv]
    assert compare_calls == [tolerances]
