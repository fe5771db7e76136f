"""Run one `parl` CLI command in this fresh process and record how it went.

Usage: python3 child.py OUT_JSON TRACE [parl arguments...]

TRACE is 0 or 1. OUT_JSON receives the CLOCK_MONOTONIC stamps (comparable
with the parent's `time.monotonic()`) of the moment `parl` finished importing
and of the start and end of the command's work, its exit code, its CPU time
and peak RSS, the host probe's median, and with TRACE=1 the tracer's summary.
"""

import json
import os
import resource
import signal
import statistics
import sys
import time

PROBE_INTERVAL_S = 0.01


class HostProbe:
    """Samples the host's speed while the command runs.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler runs a fixed kernel
    (a Python loop and a small numpy call, like parl's hot paths) once to load
    it into the caches, then times it twice and keeps the faster, about 6-9 us.
    Timing only warm runs keeps parl's own cache use out of the sample: a
    change that makes parl touch more memory would slow a cold kernel too and
    hide itself. On a shared host the speed of the same code drifts by tens of
    percent over minutes; the op's wall time divided by the probe's median
    cancels that drift. The probe costs about 0.3% of the op's time.
    """

    def __init__(self) -> None:
        import numpy as np

        self.grid = np.arange(2048).reshape(32, 64) % 8
        self.count_nonzero = np.count_nonzero
        self.samples: list[float] = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        sum(range(300))
        self.count_nonzero(self.grid == 3)
        return time.perf_counter() - start

    def _probe(self, signum, frame) -> None:
        self._kernel()
        self.samples.append(min(self._kernel(), self._kernel()))

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    out_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[3:]
    import parl.cli

    ready = time.monotonic()
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    with HostProbe() as probe:
        cpu_start = time.process_time()
        start = time.monotonic()
        try:
            rc = parl.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        end = time.monotonic()
        cpu_s = time.process_time() - cpu_start
    record = {
        "ready": ready,
        "start": start,
        "end": end,
        "cpu_s": cpu_s,
        "probe_s": statistics.median(probe.samples) if probe.samples else None,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "parl_file": os.path.abspath(parl.__file__),
    }
    if tracer is not None:
        record["trace"] = tracing.summary(tracer)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
