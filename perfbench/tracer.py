"""In-process span tracer for the parl layers, installed from outside the package.

`install` wraps every public module-level function and every public instance
method defined in the traced modules. Modules bind many of these names with
`from .x import y`, so replacing the attribute on the defining module alone
would leave those copies unwrapped and silently record zero calls. After
wrapping, `install` therefore rebinds every `parl.*` module attribute that still
holds an original function, and `unwrapped_references` reports any left over.

A span is named `<module>.<function>`. A method takes its own name unless two
classes of the module define it; then the class name, lowercased and without a
trailing "node", is prefixed (`RobotNode.handle` -> `protocol.robot_handle`).

Per span the tracer keeps the call count, inclusive time, self time (inclusive
minus the time of direct child spans) and, for the spans in
`DURATION_SPANS`, every call's duration. Groups aggregate several spans
counting only the outermost call, with the bytes each call moved. The tracer
also counts the `raw_score` calls made while `qualitative_table` runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types

PACKAGE = "parl"
TRACED_MODULES = ("world", "styles", "policy", "augment", "baselines", "codec", "protocol", "harness")

# Spans whose per-call durations are kept for percentiles.
DURATION_SPANS = frozenset({"augment.raw_score", "world.segment"})

# span -> (group, function giving the bytes one call moved)
GROUPS = {
    "codec.encode_samples": ("codec.encode", lambda args, result: len(result)),
    "codec.encode_models": ("codec.encode", lambda args, result: len(result)),
    "codec.decode_samples": ("codec.decode", lambda args, result: len(args[0])),
    "codec.decode_models": ("codec.decode", lambda args, result: len(args[0])),
    "protocol.decode_message": ("protocol.message", lambda args, result: len(args[0])),
}


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = [] if keep_durations else None


class GroupStats:
    __slots__ = ("calls", "total", "bytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.bytes = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.groups: dict[str, GroupStats] = {}
        self.raw_score_calls_in_table = 0
        self._stack: list[list[float]] = []  # child time of each open span
        self._active: dict[str, int] = {}  # open spans and groups -> depth
        self.originals: dict[int, types.FunctionType] = {}

    def wrap(self, name: str, fn):
        if name in self.spans:
            raise ValueError(f"two functions would share the span {name}")
        stats = self.spans[name] = SpanStats(name in DURATION_SPANS)
        group, size_of = GROUPS.get(name, (None, None))
        if group is not None:
            self.groups.setdefault(group, GroupStats())
        stack, active = self._stack, self._active
        is_raw_score = name == "augment.raw_score"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            outermost = group is not None and active.get(group, 0) == 0
            if outermost:
                active[group] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - frame[0]
                if stats.durations is not None:
                    stats.durations.append(elapsed)
                if is_raw_score and active.get("baselines.qualitative_table", 0):
                    self.raw_score_calls_in_table += 1
                if outermost:
                    active[group] = 0
            if outermost:
                g = self.groups[group]
                g.calls += 1
                g.total += elapsed
                g.bytes += size_of(args, result)
            return result

        self.originals[id(traced)] = fn
        return traced


def _public_methods(cls) -> list[str]:
    return [
        attr for attr, value in vars(cls).items()
        if isinstance(value, types.FunctionType) and not attr.startswith("_")
    ]


def _method_span(module: str, cls, attr: str, clashes: set[str]) -> str:
    if attr not in clashes:
        return f"{module}.{attr}"
    prefix = cls.__name__.lower()
    if prefix.endswith("node"):
        prefix = prefix[: -len("node")]
    return f"{module}.{prefix}_{attr}"


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions and methods, then rebind."""
    importlib.import_module(f"{PACKAGE}.cli")
    replacements: dict[int, object] = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"{PACKAGE}.{short}")
        classes = [
            obj for key, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__ and not key.startswith("_")
        ]
        seen: dict[str, int] = {}
        for cls in classes:
            for attr in _public_methods(cls):
                seen[attr] = seen.get(attr, 0) + 1
        clashes = {attr for attr, n in seen.items() if n > 1}
        for key, obj in list(vars(module).items()):
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
                and not key.startswith("_")
            ):
                replacements[id(obj)] = tracer.wrap(f"{short}.{key}", obj)
        for cls in classes:
            for attr in _public_methods(cls):
                span = _method_span(short, cls, attr, clashes)
                setattr(cls, attr, tracer.wrap(span, vars(cls)[attr]))
    for module in _package_modules():
        for key, obj in list(vars(module).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None and tracer.originals[id(wrapper)] is obj:
                setattr(module, key, wrapper)


def unwrapped_references(tracer: Tracer) -> list[str]:
    """`module.name` of every package attribute still bound to an original."""
    originals = {id(fn) for fn in tracer.originals.values()}
    return sorted(
        f"{module.__name__}.{key}"
        for module in _package_modules()
        for key, obj in vars(module).items()
        if id(obj) in originals
    )


def _percentile_ms(durations: list[float], q: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return 1000.0 * (ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def summary(tracer: Tracer) -> dict:
    """Plain-data view of everything recorded, for JSON transport."""
    spans = {}
    for name, st in sorted(tracer.spans.items()):
        entry = {"calls": st.calls, "s": st.total, "self_s": st.self_time}
        if st.durations is not None:
            entry["p50_ms"] = _percentile_ms(st.durations, 0.50)
            entry["p99_ms"] = _percentile_ms(st.durations, 0.99)
        spans[name] = entry
    groups = {
        name: {"calls": g.calls, "s": g.total, "bytes": g.bytes}
        for name, g in sorted(tracer.groups.items())
    }
    return {
        "spans": spans,
        "groups": groups,
        "raw_score_calls_in_table": tracer.raw_score_calls_in_table,
        "unwrapped": unwrapped_references(tracer),
    }
