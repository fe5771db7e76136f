"""Every per-layer timing and call metric of BENCHMARK.json names a span the tracer wraps.

The tracer wraps the public functions and methods of the parl modules by name,
so renaming or deleting one silently drops its metric. The check installs the
tracer in a fresh interpreter, as a benchmark op does, and reads only the
repository's `perfbench/` and `BENCHMARK.json`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import parl

ROOT = Path(__file__).resolve().parent.parent
SPAN_STATISTICS = ("calls", "s", "self_s", "p50_ms", "p99_ms")

# Prints the wrapped spans and the GROUPS groups as one JSON object.
_INSTALL = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import tracer; "
    "t = tracer.Tracer(); tracer.install(t); "
    "print(json.dumps({'spans': sorted(t.spans), "
    "'groups': sorted({g for g, _ in tracer.GROUPS.values()})}))"
)


def test_every_span_metric_names_a_wrapped_span_or_group():
    env = dict(os.environ)
    src = str(Path(parl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    known = set(traced["spans"]) | set(traced["groups"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = [
        metric["name"].rsplit(".", 1)
        for metric in bench["per_layer"]
        if metric["name"].rsplit(".", 1)[1] in SPAN_STATISTICS
    ]
    assert named, "BENCHMARK.json names no per-layer span metric"
    assert sorted(f"{span}.{stat}" for span, stat in named if span not in known) == []
