"""Smoke test of the benchmark harness at tiny parameters.

Run from the root of a source checkout, with or without pytest::

    python3 perfbench/test_smoke.py
    python3 -m pytest -q perfbench/test_smoke.py

It checks that an untraced run emits every end-to-end metric and a traced
run every per-layer metric named in ``BENCHMARK.json``, that a planted
wrong expected verdict and a broken relator search are counted as
failures, and that the command refuses to run without the torellikit
sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import certgen  # noqa: E402
import run  # noqa: E402
import torellikit.certificates  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY_SUITES = {"suites": [
    {"suite": "phi-inverse-A", "n": 2, "cases": 11},
    {"suite": "extension", "n": 2, "samples": 2, "seeded": True, "cases": 8},
    {"suite": "lambda-arel", "n": 2, "samples": 2, "seeded": True, "cases": 41},
]}
TINY_CERTIFY = {"certificates": [
    {"n": 2, "depth": 1, "counts": {"seed": 2, "phi": 1, "reject": 1}},
]}


def _measure(spec, trace, lines=None):
    log = lines.append if lines is not None else (lambda _line: None)
    return run.measure(spec, seed=3, seconds=0, trace=trace, log=log)


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_untraced_run_emits_every_end_to_end_metric():
    for spec in (TINY_SUITES, TINY_CERTIFY):
        result = _measure(spec, trace=False)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == _names("end_to_end")
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    for spec in (TINY_SUITES, TINY_CERTIFY):
        result = _measure(spec, trace=True)
        assert result["correct"]
        assert set(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["certificates.check_certificate.calls"]["value"] == 4


def test_planted_wrong_verdict_is_counted():
    original = certgen.make_batch

    def planted(shapes, seed):
        batch = original(shapes, seed)
        batch[0]["expect_ok"] = not batch[0]["expect_ok"]
        return batch

    certgen.make_batch = planted
    try:
        lines = []
        result = _measure(TINY_CERTIFY, trace=False, lines=lines)
    finally:
        certgen.make_batch = original
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "failed_ratio 0.25 (1 of 4)" in lines


def _score_with_membership(answer):
    """Score a tiny certify pass, run in-process, with the relator search
    replaced by one that always gives ``answer``."""
    request = run.make_request(TINY_CERTIFY, seed=3)
    original = torellikit.certificates._relator_closure_member
    torellikit.certificates._relator_closure_member = lambda *args: answer
    try:
        result = worker.run_pass(run.worker_payload(request))
    finally:
        torellikit.certificates._relator_closure_member = original
    return run.score(request, result)


def test_broken_relator_search_is_counted():
    # the intact search gets every verdict right
    request = run.make_request(TINY_CERTIFY, seed=3)
    assert run.score(request, worker.run_pass(run.worker_payload(request)))["failed"] == 0
    # a search that accepts everything misses the one non-relator
    assert _score_with_membership(True)["failed"] == 1
    # a search that accepts nothing rejects the three relator certificates
    assert _score_with_membership(False)["failed"] == 4


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
