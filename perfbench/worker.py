"""One timed pass of a benchmark workload, in a fresh interpreter.

Reads a JSON request on standard input and writes one JSON result line on
standard output.  A request is either ``{"suites": [...]}``, run through
``suites.run_suite``, or ``{"certificates": [...]}``, checked through
``certificates.check_certificate``; with ``"trace": true`` the per-layer
tracer is installed first.  ``run_pass`` does the same in-process.  The
timed region excludes interpreter start and the import of torellikit, which
``setup_s`` measures separately.  An untraced pass samples the host's
speed (``hostspeed.py``) and leaves the samples out of its timings.
Verdicts are returned as observed, with a certificate's errors and checked
steps; ``run.py`` compares them with the expected ones.
"""

import contextlib
import json
import resource
import sys
import time

import hostspeed
import torellikit.certificates
import torellikit.suites


class _Clock:
    """Times regions, less the host-speed probes inside them."""

    def __init__(self, probe):
        self.probe = probe
        self.regions = []

    def _now(self):
        spent = self.probe.spent_s if self.probe is not None else 0.0
        return time.perf_counter(), spent

    @contextlib.contextmanager
    def region(self, out: dict):
        """Put the region's seconds in ``out``, and keep it for ``scale``."""
        t0, s0 = self._now()
        yield
        t1, s1 = self._now()
        out["seconds"] = (t1 - t0) - (s1 - s0)
        self.regions.append((out, t0, t1))

    def scale(self):
        """Give each region the host scale around it, once probes stopped."""
        for out, t0, t1 in self.regions:
            out["scale"] = (self.probe.scale_between(t0, t1)
                            if self.probe is not None else 1.0)


def run_suites(items, clock) -> list:
    out = []
    for item in items:
        params = {k: item[k] for k in ("n", "samples", "seed") if k in item}
        verdict = {}
        with clock.region(verdict):
            report = torellikit.suites.run_suite(item["suite"], **params)
        verdict.update(cases=len(report.cases), failures=len(report.failures))
        out.append(verdict)
    return out


def run_certificates(items, clock) -> list:
    out = []
    for item in items:
        verdict = {}
        with clock.region(verdict):
            report = torellikit.certificates.check_certificate(
                item["text"], depth=item["depth"]
            )
        verdict.update(ok=report.ok, checked_steps=report.checked_steps,
                       errors=report.errors)
        out.append(verdict)
    return out


def run_pass(request) -> dict:
    tracer = probe = None
    if request.get("trace"):
        import layertrace
        tracer = layertrace.install()
    else:
        probe = hostspeed.Probe()
    clock = _Clock(probe)
    timing = {}
    with probe if probe is not None else contextlib.nullcontext():
        with clock.region(timing):
            if "suites" in request:
                verdicts = run_suites(request["suites"], clock)
            else:
                verdicts = run_certificates(request["certificates"], clock)
    clock.scale()
    # the width the suites' pool would use, from the package's own rule
    thread_count = getattr(torellikit.suites, "_thread_count", None)
    result = {
        "wall_s": timing["seconds"],
        "wall_scale": timing["scale"],
        "verdicts": verdicts,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pool_width": thread_count() if thread_count else None,
    }
    if tracer is not None:
        result["layers"] = tracer.report()
        result["missing"] = tracer.missing
    return result


def main() -> int:
    print(json.dumps(run_pass(json.load(sys.stdin))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
