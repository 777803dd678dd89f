#!/usr/bin/env python3
"""torellikit benchmark: end-to-end and per-layer numbers for three workloads.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload substitution --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``substitution`` -- suites phi-nielsen, phi-inverse-A, phi-conj and
  gamma-rel at n=4;
* ``extension`` -- suites extension and tb3 at n=2 and n=3, jw-delta and
  lambda-arel at n=3, sampled from the seed;
* ``certify`` -- seeded certificates with known verdicts (``certgen.py``).

Every pass runs in a fresh interpreter (``worker.py``) against ``src/``,
one pass after another, with ``VERIKIT_THREADS`` removed so that suites use
their shipped thread pool.  On the suite workloads a pass is one suite,
as in one ``torellikit verify`` call; on ``certify`` it is the run's batch
of certificates.  Every pass runs once, then passes repeat, the least
repeated first, while they fit in ``--seconds``.  A pass samples the
host's speed with a fixed reference loop (``hostspeed.py``) and its times
are scaled to a nominal host speed, so a slow spell of a shared host does
not read as a slower program.  Each suite and each certificate is timed
at its median over its repeats.  With ``--trace 1`` each pass of the
workload runs untraced and then with the per-layer tracer
(``layertrace.py``), and the per-layer metrics are reported instead of the
end-to-end ones.

Every case count, suite verdict and certificate verdict is checked.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, sample counts, per-suite times and ``failed_ratio``.  Exit status: 0
when every check passed, 1 when one failed, 2 when the benchmark could not
run (for example, no ``src/torellikit`` beside this directory).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# suites: run_suite arguments and the number of cases each must report;
# "seeded" suites take the run's seed, the others run at the shipped default
# seed, as `torellikit verify` does.  The cost of extension is set by its
# largest sampled element: at n=2 over five seeds it took 5.1 to 10.0 s and
# peaked at 56 to 198 MB, at n=3 over ten seeds it took 3.8 to 8.3 s, which
# no bound could absorb, so it keeps the default seed at both ranks.
WORKLOADS = {
    "substitution": {"suites": [
        {"suite": "phi-nielsen", "n": 4, "cases": 679},
        {"suite": "phi-inverse-A", "n": 4, "cases": 58},
        {"suite": "phi-conj", "n": 4, "cases": 6864},
        {"suite": "gamma-rel", "n": 4, "cases": 3852},
    ]},
    "extension": {"suites": [
        {"suite": "extension", "n": 2, "samples": 100, "cases": 302},
        {"suite": "extension", "n": 3, "samples": 100, "cases": 302},
        {"suite": "tb3", "n": 2, "samples": 100, "seeded": True, "cases": 17},
        {"suite": "tb3", "n": 3, "samples": 100, "seeded": True, "cases": 57},
        {"suite": "jw-delta", "n": 3, "cases": 378},
        {"suite": "lambda-arel", "n": 3, "samples": 100, "seeded": True, "cases": 322},
    ]},
    # 30 certificates a pass: 22 accepted with two seed insertions, 3
    # accepted with a seed and a phi-image insertion, 5 rejected.  With 17%
    # rejected, the 90th percentile of verdict times falls among the
    # rejects, which all run the same full search at n=3.
    "certify": {"certificates": [
        {"n": 3, "depth": 1, "counts": {"seed": 20, "phi": 2, "reject": 5}},
        {"n": 2, "depth": 2, "counts": {"seed": 2, "phi": 1}},
    ]},
}

NON_RELATOR = re.compile(r"line (\d+): non-relator insertion")

SETUP_STARTS = 15
SETUP_STARTS_FIRST = 3
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("VERIKIT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def time_setup(env) -> float:
    """Seconds from interpreter start until torellikit is imported.

    The time is scaled to the nominal host speed by the reference loop,
    run in this process just before the start.
    """
    c0 = time.thread_time()
    for _ in range(SETUP_PROBES):
        hostspeed.reference_loop()
    scale = hostspeed.NOMINAL_S * SETUP_PROBES / (time.thread_time() - c0)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import torellikit.certificates, torellikit.suites"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError("cannot import torellikit: " + proc.stderr.strip()[-500:])
    return seconds * scale


def make_request(spec, seed: int) -> dict:
    if "suites" in spec:
        items = []
        for item in spec["suites"]:
            params = {k: item[k] for k in ("suite", "n", "samples") if k in item}
            if item.get("seeded"):
                params["seed"] = seed
            items.append(dict(params, expect_cases=item["cases"]))
        return {"suites": items}
    import certgen  # imports torellikit, which main() has put on the path
    return {"certificates": certgen.make_batch(spec["certificates"], seed)}


def worker_payload(request, trace=False) -> dict:
    """The inputs of a pass, without the expected answers."""
    if "suites" in request:
        payload = {"suites": [
            {k: v for k, v in item.items() if k != "expect_cases"}
            for item in request["suites"]
        ]}
    else:
        payload = {"certificates": [
            {"text": c["text"], "depth": c["depth"]}
            for c in request["certificates"]
        ]}
    return dict(payload, trace=trace)


def run_worker(request, env, trace=False) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(worker_payload(request, trace)), env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError("worker failed: " + proc.stderr.strip()[-2000:])
    return json.loads(lines[-1])


def score(request, result) -> dict:
    """Check a pass's verdicts against the expected ones.

    The times of an untraced pass are scaled to the nominal host speed
    (``hostspeed.py``); ``raw_wall_s`` is the pass time as measured.
    """
    attempted = failed = ops = 0
    if "suites" in request:
        for item, got in zip(request["suites"], result["verdicts"]):
            expect = item["expect_cases"]
            attempted += max(expect, got["cases"])
            failed += min(max(expect, got["cases"]),
                          got["failures"] + abs(expect - got["cases"]))
            ops += got["cases"]
    else:
        for cert, got in zip(request["certificates"], result["verdicts"]):
            attempted += 1
            failed += not certificate_verdict_right(cert, got)
            ops += 1
    return {
        "wall_s": result["wall_s"] * result["wall_scale"],
        "raw_wall_s": result["wall_s"],
        "host_scale": result["wall_scale"],
        "ops": ops,
        "attempted": attempted,
        "failed": failed,
        "item_s": [v["seconds"] * v["scale"] for v in result["verdicts"]],
        "rss_mb": result["rss_mb"],
        "pool_width": result["pool_width"],
        "layers": result.get("layers"),
        "missing": result.get("missing", []),
    }


def certificate_verdict_right(cert, got) -> bool:
    """Whether the checker rejected exactly the non-relator insertions.

    The verdict alone does not show this: a reject certificate also fails
    the checker's semantic cross-check, whether or not its relator search
    caught the non-relator.  So the rejected lines and the number of
    insertions replayed must match too.
    """
    rejected = sorted(int(m.group(1)) for e in got["errors"]
                      for m in [NON_RELATOR.match(e)] if m)
    return (got["ok"] == cert["expect_ok"]
            and rejected == cert["rejected_lines"]
            and got["checked_steps"]
            == cert["insertions"] - len(cert["rejected_lines"]))


def _quantiles(values, n):
    if len(values) == 1:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def metric_units(block: str) -> dict:
    """Name to unit of the metrics of one block of ``BENCHMARK.json``."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from None
    return {m["name"]: m["unit"] for m in spec[block]}


def make_passes(spec, seed: int) -> list:
    """The requests of a workload: one a suite, or the certificate batch."""
    if "suites" in spec:
        return [make_request({"suites": [item]}, seed) for item in spec["suites"]]
    return [make_request(spec, seed)]


def measure(spec, seed: int, seconds: float, trace: bool, log=print) -> dict:
    env = child_env()
    started = time.perf_counter()
    passes = make_passes(spec, seed)
    time_setup(env)  # compile bytecode once, outside the timings
    if trace:
        return measure_layers(spec, passes, seconds, started, env, log)
    return measure_end_to_end(spec, passes, seconds, started, env, log)


def measure_end_to_end(spec, passes, seconds, started, env, log) -> dict:
    """Run every pass once, then repeat passes while they fit in the time.

    The least repeated pass goes first, the costliest of those that fit
    breaking ties.  Interpreter starts for ``setup_s`` are spread over the
    run, one after each pass, so that they too sample the whole run.
    """
    samples = [[] for _ in passes]
    costs = [[] for _ in passes]
    setup, setup_costs = [], []

    def start():
        t0 = time.perf_counter()
        setup.append(time_setup(env))
        setup_costs.append(time.perf_counter() - t0)

    def run_pass(i):
        t0 = time.perf_counter()
        samples[i].append(score(passes[i], run_worker(passes[i], env)))
        costs[i].append(time.perf_counter() - t0)
        start()

    for _ in range(SETUP_STARTS_FIRST):
        start()
    for i in range(len(passes)):
        run_pass(i)
    while True:
        # keep time for the interpreter starts still owed at the end
        owed = max(0, SETUP_STARTS - len(setup) - 1) * statistics.median(setup_costs)
        left = seconds - (time.perf_counter() - started) - owed
        fits = [i for i in range(len(passes))
                if statistics.median(costs[i]) + setup_costs[-1] <= left]
        if not fits:
            break
        run_pass(min(fits, key=lambda i: (len(samples[i]), -statistics.median(costs[i]))))
    while len(setup) < SETUP_STARTS:
        start()

    done = [s for per_pass in samples for s in per_pass]
    attempted = sum(s["attempted"] for s in done)
    failed = sum(s["failed"] for s in done)
    # the time of a suite or a certificate is its median over the repeats
    times = [[statistics.median(s["item_s"][j] for s in per_pass)
              for j in range(len(per_pass[0]["item_s"]))] for per_pass in samples]
    wall = sum(map(sum, times))
    ops = sum(per_pass[0]["ops"] for per_pass in samples)
    # a verdict answers one request: a certificate, or the workload's suites
    verdicts = [wall] if "suites" in spec else times[0]
    p50, p90 = (_quantiles(verdicts, 10)[i] * 1000.0 for i in (4, 8))
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "verdict_ms.p50": p50,
        "verdict_ms.p90": p90,
        "peak_rss_mb": max(statistics.median(s["rss_mb"] for s in per_pass)
                           for per_pass in samples),
    }
    log(f"pool_width {done[0]['pool_width']} (suites._thread_count in a pass)")
    log(f"passes {len(done)}  verdicts {len(verdicts)}  setup starts {len(setup)}")
    scales = sorted(s["host_scale"] for s in done)
    log(f"host scale of the passes: median {statistics.median(scales):.4f}, "
        f"range {scales[0]:.4f} .. {scales[-1]:.4f}")
    if "suites" in spec:
        for item, t, per_pass in zip(spec["suites"], times, samples):
            log(f"suite {item['suite']} n={item['n']} {t[0]:.4f} s, "
                f"median of {len(per_pass)} runs")
    else:
        log(f"each certificate timed at the median of {len(samples[0])} checks")
    return result(end_to_end, "end_to_end", attempted, failed, log)


def measure_layers(spec, passes, seconds, started, env, log) -> dict:
    """Run each pass untraced and then traced, while time is left.

    On the suite workloads all suites go to one request, so that a traced
    pass covers the whole workload.
    """
    if "suites" in spec:
        passes = [{"suites": [item for p in passes for item in p["suites"]]}]
    plain, traced = [], []
    while True:
        for request in passes:
            plain.append(score(request, run_worker(request, env)))
            traced.append(score(request, run_worker(request, env, trace=True)))
        rounds = len(plain) // len(passes)
        if (time.perf_counter() - started) * (rounds + 1) / rounds > seconds:
            break

    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    layers = [p["layers"] for p in traced]
    metrics = {
        name: statistics.median(layer[name] for layer in layers)
        for name in layers[0]
    }
    # a traced pass has no host-speed probe, so both sides are unscaled
    metrics["trace.wall_s"] = statistics.median(p["raw_wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(p["raw_wall_s"] for p in plain))
    log(f"traced passes {len(traced)}")
    if traced[0]["missing"]:
        log("not traced (absent): " + ", ".join(traced[0]["missing"]))
    return result(metrics, "per_layer", attempted, failed, log)


def result(metrics, block, attempted, failed, log) -> dict:
    """The result line, with units from ``BENCHMARK.json``."""
    units = metric_units(block)
    if set(metrics) != set(units):
        raise HarnessError("metrics differ from BENCHMARK.json: "
                           + ", ".join(sorted(set(metrics) ^ set(units))))
    if block == "end_to_end":
        for name, value in metrics.items():
            log(f"{name} {value:.6g} {units[name]}")
    log(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def machine(workload: str, seed: int, seconds: int) -> dict:
    cpus = os.cpu_count() or 1
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpus,
        "cpu_count": cpus,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torellikit" / "__init__.py").is_file():
        print(f"error: no torellikit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("machine " + json.dumps(machine(args.workload, args.seed, args.seconds)))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
