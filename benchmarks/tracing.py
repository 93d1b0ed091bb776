"""Spans and counters for the traced benchmark run, and the per-layer
metrics derived from them.

A span records one call into a layer's public entry point: its name
(``layer.function`` plus an optional ``/class`` of the input), start and
end on the ``perf_counter_ns`` clock, the span that caused it and the
operation it belongs to.  Spans are kept in memory and written out when
the run ends.  A layer's self time is its span's duration minus the
durations of its child spans.

``install`` wraps the public functions that one layer of glshift calls in
another (model calls inside ``run_sweep``, say), so that child time is
attributed to the callee.  It is used only in traced runs.  The module
imports nothing from glshift at import time, because the traced ``gls``
child process loads it before the package.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from types import SimpleNamespace

_now = time.perf_counter_ns

# Inputs at or above these sizes count as "large" / "out of cache".
LARGE_SWEEP_POINTS = 1000
OUT_OF_CACHE_STEPS = 1_000_000


class Tracer:
    """In-memory span recorder with a stack of open spans.

    Spans live in flat arrays (a traced sweep_dense run records about
    three million), names as indices into ``labels``.
    """

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def name(self, index: int) -> str:
        return self.labels[self.name_ids[index]]

    def _label_id(self, name: str) -> int:
        label_id = self._label_ids.get(name)
        if label_id is None:
            label_id = self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return label_id

    def open(self, name: str) -> int:
        index = len(self.starts)
        self.name_ids.append(self._label_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(_now())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = _now()
        self._stack.pop()

    def wrap(self, fn, label, after=None):
        """Return fn wrapped in a span; label(args) or a str names it.

        after(args, result) runs outside the span to update counters.
        A call that raises counts under ``<name>:raised``.
        """

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[name + ":raised"] += 1
                raise
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def extend(self, rows: list[list], counters: dict[str, int], op: int) -> None:
        """Append spans recorded by another process (see ``dump``)."""
        base = len(self.starts)
        for name, start, end, parent in rows:
            self.name_ids.append(self._label_id(name))
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent + base if parent >= 0 else -1)
            self.ops.append(op)
        self.counters.update(counters)

    def dump(self) -> str:
        """Spans and counters as one line of text, parsed by ``load_dump``."""
        spans = ";".join(
            f"{self.name(i)},{self.starts[i]},{self.ends[i]},{self.parents[i]}"
            for i in range(len(self))
        )
        counters = ";".join(f"{k}={v}" for k, v in self.counters.items())
        return spans + "|" + counters

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, one line per span."""
        import gzip  # not at module level: it slows the traced gls start

        labels = self.labels
        origin = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(f"# start_ns and end_ns count from perf_counter_ns() = {origin}\n")
            out.write("span,parent,op,name,start_ns,end_ns\n")
            out.writelines(
                f"{i},{parent},{op},{labels[name]},{start - origin},{end - origin}\n"
                for i, (parent, op, name, start, end) in enumerate(
                    zip(self.parents, self.ops, self.name_ids, self.starts, self.ends)
                )
            )


def load_dump(text: str) -> tuple[list[list], dict[str, int]]:
    spans_text, counters_text = text.split("|", 1)
    rows = []
    for item in filter(None, spans_text.split(";")):
        name, start, end, parent = item.split(",")
        rows.append([name, int(start), int(end), int(parent)])
    counters = {}
    for item in filter(None, counters_text.split(";")):
        key, value = item.split("=")
        counters[key] = int(value)
    return rows, counters


# ------------------------------------------------------------ wrapping glshift


def _scenario_label(args) -> str:
    text = args[0] if args else ""
    return "scenario.load_scenario/" + ("derived" if "ci_g_per_kwh" in text else "direct")


def _sweep_label(args) -> str:
    spec = args[0]
    points = int(round((spec.stop - spec.start) / spec.step)) + 1
    return "sweeps.run_sweep/" + ("large" if points >= LARGE_SWEEP_POINTS else "small")


def _size_class(spec) -> str:
    return "out_of_cache" if spec.steps >= OUT_OF_CACHE_STEPS else "in_cache"


API_NAMES = ("load_scenario", "blended_emissions", "run_sweep", "kink_location", "compare_with_means")


def public_api():
    """The glshift entry points the benchmark calls, from the package root."""
    import glshift

    names = API_NAMES + ("SweepSpec", "TraceSpec", "Uniform", "ScenarioError", "ModelError")
    return SimpleNamespace(**{name: getattr(glshift, name) for name in names})


def install(tracer: Tracer):
    """Trace the public entry points and glshift's own cross-layer calls.

    Returns the traced api (same attributes as ``public_api()``) and what
    ``uninstall`` needs.  Besides wrapping the entry points, it patches
    the names the cli module imported, the model entry point the sweeps
    module calls and ``TraceSpec.draw``; a name the program no longer has
    is skipped.
    """
    import glshift.cli
    import glshift.sweeps

    counters = tracer.counters

    def after_eval(args, report):
        alpha = getattr(args[3], "alpha", None) if len(args) > 3 else None
        alpha_eff = getattr(report, "alpha_eff", None)
        if alpha is not None and alpha_eff is not None and alpha_eff < alpha:
            counters["model.capacity_bound"] += 1

    def after_sweep(args, rows):
        counters["sweeps.points"] += len(rows)
        counters["sweeps.planned_evals"] += len(rows) * len(args[0].variants)

    def after_compare(args, _result):
        counters["trace.steps"] += args[0].steps

    api = public_api()
    api.load_scenario = tracer.wrap(api.load_scenario, _scenario_label)
    api.blended_emissions = tracer.wrap(api.blended_emissions, "model.blended_emissions", after_eval)
    api.run_sweep = tracer.wrap(api.run_sweep, _sweep_label, after_sweep)
    api.kink_location = tracer.wrap(api.kink_location, "sweeps.kink_location")
    api.compare_with_means = tracer.wrap(
        api.compare_with_means,
        lambda args: "trace.compare_with_means/" + _size_class(args[0]),
        after_compare,
    )

    patched = []

    def patch(owner, attr, replacement):
        original = getattr(owner, attr, None)
        if original is None:
            return
        patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    for name in API_NAMES:
        patch(glshift.cli, name, getattr(api, name))
    patch(glshift.sweeps, "blended_emissions", api.blended_emissions)
    if hasattr(api.TraceSpec, "draw"):
        patch(
            api.TraceSpec,
            "draw",
            tracer.wrap(api.TraceSpec.draw, lambda args: "trace.draw/" + _size_class(args[0])),
        )
    return api, patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


# ------------------------------------------------------------ per-layer metrics


class Spans:
    """Per-name call counts, total durations and total self times, in ns."""

    def __init__(self, tracer: Tracer) -> None:
        starts, ends, parents, name_ids = tracer.starts, tracer.ends, tracer.parents, tracer.name_ids
        child = array("q", bytes(8 * len(starts)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        width = len(tracer.labels)
        calls, durations, selfs = [0] * width, [0] * width, [0] * width
        pairs: Counter[tuple[int, int]] = Counter()
        for i, label_id in enumerate(name_ids):
            duration = ends[i] - starts[i]
            calls[label_id] += 1
            durations[label_id] += duration
            selfs[label_id] += duration - child[i]
            if parents[i] >= 0:
                pairs[name_ids[parents[i]], label_id] += 1
        labels = tracer.labels
        self.calls_by_name = dict(zip(labels, calls))
        self.durations = dict(zip(labels, durations))
        self.selfs = dict(zip(labels, selfs))
        self.child_calls = {(labels[p], labels[c]): n for (p, c), n in pairs.items()}

    def calls(self, *names: str) -> int:
        return sum(self.calls_by_name.get(n, 0) for n in names)

    def total(self, *names: str, self_time: bool = False) -> int:
        table = self.selfs if self_time else self.durations
        return sum(table.get(n, 0) for n in names)

    def mean(self, *names: str, self_time: bool = False) -> float:
        calls = self.calls(*names)
        return self.total(*names, self_time=self_time) / calls if calls else 0.0

    def children(self, parents: tuple[str, ...], child: str) -> int:
        return sum(self.child_calls.get((p, child), 0) for p in parents)


_PARSE = ("scenario.load_scenario/direct", "scenario.load_scenario/derived")
_SWEEPS = ("sweeps.run_sweep/small", "sweeps.run_sweep/large")
_COMPARE = ("trace.compare_with_means/in_cache", "trace.compare_with_means/out_of_cache")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the scenario, model, sweeps and trace layers.

    A layer the workload does not reach reads 0.  Times are means per
    call; ``calls`` are totals over the traced part of the run.
    """
    spans = Spans(tracer)
    counters = tracer.counters
    ms, us = 1e-6, 1e-3
    parse_calls = spans.calls(*_PARSE)
    rejected = sum(counters[n + ":raised"] for n in _PARSE)
    evals = spans.calls("model.blended_emissions")
    sweep_evals = spans.children(_SWEEPS, "model.blended_emissions")
    steps = counters["trace.steps"]
    metrics = {
        "scenario.parse_calls.direct": spans.calls(_PARSE[0]),
        "scenario.parse_calls.derived": spans.calls(_PARSE[1]),
        "scenario.parse_us.direct": spans.mean(_PARSE[0]) * us,
        "scenario.parse_us.derived": spans.mean(_PARSE[1]) * us,
        "scenario.rejected_ratio": rejected / parse_calls if parse_calls else 0.0,
        "model.eval_calls": evals,
        "model.eval_us": spans.mean("model.blended_emissions") * us,
        "model.capacity_bound_share": counters["model.capacity_bound"] / evals if evals else 0.0,
        "sweeps.sweep_ms.small": spans.mean(_SWEEPS[0]) * ms,
        "sweeps.sweep_ms.large": spans.mean(_SWEEPS[1]) * ms,
        "sweeps.self_ms": spans.mean(*_SWEEPS, self_time=True) * ms,
        "sweeps.evals_per_point": (
            sweep_evals / counters["sweeps.points"] if counters["sweeps.points"] else 0.0
        ),
        "sweeps.retry_evals": max(0, sweep_evals - counters["sweeps.planned_evals"]),
        "sweeps.kink_ms": spans.mean("sweeps.kink_location") * ms,
        "trace.ns_per_step": spans.total(*_COMPARE) / steps if steps else 0.0,
    }
    for size in ("in_cache", "out_of_cache"):
        compare = "trace.compare_with_means/" + size
        calls = spans.calls(compare)
        draw = spans.total("trace.draw/" + size)
        metrics[f"trace.draw_ms.{size}"] = draw / calls * ms if calls else 0.0
        metrics[f"trace.self_ms.{size}"] = (spans.total(compare) - draw) / calls * ms if calls else 0.0
    return metrics


def median_or_zero(values: list[float]) -> float:
    import statistics  # not at module level: it slows the traced gls start

    return statistics.median(values) if values else 0.0
