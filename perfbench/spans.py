"""Spans for the traced run, recorded from outside the program.

The tracer swaps frontlab's public names for timing wrappers. frontlab
looks its collaborators up as module globals at call time, so replacing a
function in every frontlab module that binds it puts a span around every
call, wherever it comes from. Each span records its name, start, end and
parent; spans stay in memory until the run ends and are summarised per
epoch (one set-up repetition or one measured pass).

A name a later version of the program no longer has is reported as absent
and its metrics read 0, so the traced run still completes.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from statistics import median

# (public name, span name, work recorder). The work recorder turns
# (args, result) into the number a count metric sums.
TARGETS = (
    ("frontlab.solver.step", "solver.step",
     lambda args, res: int(args[0].values.size)),
    ("frontlab.solver.solve_banded", "solver.solve_banded", None),
    ("frontlab.solver.field_build", "model.field_build", None),
    ("frontlab.solver.reaction_eval", "model.reaction_eval", None),
    ("frontlab.solver.simulate", "solver.simulate", None),
    ("frontlab.solver.discrete_residual", "solver.discrete_residual", None),
    ("frontlab.cli.write_trajectory_csv", "cli.write_trajectory",
     lambda args, res: os.path.getsize(args[0])),
    ("frontlab.cli.read_trajectory_csv", "cli.read_trajectory", None),
    ("frontlab.cli.classify", "regimes.classify", None),
    ("frontlab.waves.shoot", "waves.shoot",
     lambda args, res: int(res.outcome == "case-iii")),
    ("frontlab.waves.engler_transform", "waves.transform", None),
    ("frontlab.closedform.pme_bump_params", "closedform.construct", None),
    ("frontlab.closedform.fde_sub_params", "closedform.construct", None),
    ("frontlab.closedform.appendix_sub_params", "closedform.construct", None),
    ("frontlab.closedform.growth_super", "closedform.construct", None),
    ("frontlab.closedform.constant_speed_super", "closedform.construct",
     None),
    ("frontlab.closedform.right_tail_spec", "closedform.construct", None),
    ("frontlab.analysis.track_level", "analysis.track", None),
    ("frontlab.analysis.fit_exponential_rate", "analysis.fit", None),
    ("frontlab.analysis.fit_polynomial_exponent", "analysis.fit", None),
    ("frontlab.analysis.sandwich_check", "analysis.sandwich", None),
    ("frontlab.analysis.ordering_check", "analysis.ordering", None),
    ("frontlab.model.grid_build", "model.build", None),
    ("frontlab.model.initial_data_build", "model.build", None),
    ("frontlab.model.params_from_dict", "model.build", None),
    ("frontlab.model.bundle_from_dict", "model.build", None),
)

class NoTrace:
    """Stand-in used with tracing off: call-site spans cost nothing."""

    def span(self, name):
        return contextlib.nullcontext()


# A finished span is a plain tuple of numbers and strings, which the
# garbage collector stops tracking, so holding many of them in memory does
# not slow the program's own collections.
SID, NAME, START, END, DUR, PARENT, EPOCH, WORK, OUTER = range(9)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.epoch = None
        self.absent = sorted({span for _, span, _ in TARGETS}
                             - set(self._resolve()))
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._swapped = []

    @staticmethod
    def _resolve():
        """Map span name -> [(original function, work recorder)]."""
        found = defaultdict(list)
        for dotted, span, work in TARGETS:
            mod_name, attr = dotted.rsplit(".", 1)
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if callable(fn):
                found[span].append((fn, work))
        return found

    def _open(self, name):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1][0] if stack else -1
        outer = all(open_name != name for _, open_name in stack)
        sid = next(self._ids)
        stack.append((sid, name))
        # Outside the main thread a span's wall time includes waiting for
        # the interpreter lock, so there it records the thread's CPU time.
        cpu0 = (None if threading.get_ident() == self._main
                else time.thread_time())
        return stack, sid, parent, outer, cpu0, time.perf_counter()

    def _close(self, name, opened, work=0):
        end = time.perf_counter()
        stack, sid, parent, outer, cpu0, start = opened
        dur = end - start if cpu0 is None else time.thread_time() - cpu0
        stack.pop()
        self.spans.append((sid, name, start, end, dur, parent, self.epoch,
                           work, outer))

    @contextlib.contextmanager
    def span(self, name):
        opened = self._open(name)
        try:
            yield
        finally:
            self._close(name, opened)

    def _wrap(self, name, fn, work):
        def traced(*args, **kwargs):
            opened = self._open(name)
            done = 0
            try:
                res = fn(*args, **kwargs)
                if work is not None:
                    done = work(args, res)
                return res
            finally:
                self._close(name, opened, done)
        return traced

    def install(self):
        """Swap every frontlab global bound to a target for its wrapper."""
        originals = {}
        for span, entries in self._resolve().items():
            for fn, work in entries:
                originals[id(fn)] = (fn, self._wrap(span, fn, work))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("frontlab") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._swapped.append((mod, attr, val))

    def remove(self):
        for mod, attr, val in reversed(self._swapped):
            setattr(mod, attr, val)
        self._swapped.clear()


def summarise(spans):
    """Per-name totals of one epoch: outermost time, calls and work, self
    time, and the spans themselves for interval queries."""
    child = defaultdict(float)
    for sp in spans:
        if sp[PARENT] >= 0:
            child[sp[PARENT]] += sp[DUR]
    out = defaultdict(lambda: {"s": 0.0, "calls": 0, "self_s": 0.0,
                               "work": 0, "spans": []})
    for sp in spans:
        row = out[sp[NAME]]
        row["self_s"] += sp[DUR] - child[sp[SID]]
        row["spans"].append(sp)
        if sp[OUTER]:
            row["s"] += sp[DUR]
            row["calls"] += 1
            row["work"] += sp[WORK]
    return out


def _within(rows, name, outer_name):
    """Time of outermost `name` spans that start inside an `outer_name`
    span, in any thread."""
    windows = [(sp[START], sp[END]) for sp in rows[outer_name]["spans"]]
    return sum(sp[DUR] for sp in rows[name]["spans"] if sp[OUTER]
               and any(a <= sp[START] <= b for a, b in windows))


# Per-layer metric -> (unit, spans it needs, value from an epoch summary).
LAYER_METRICS = {
    "solver.step_s": ("s", ("solver.step",),
                      lambda r: r["solver.step"]["s"]),
    "solver.step_calls": ("count", ("solver.step",),
                          lambda r: r["solver.step"]["calls"]),
    "solver.node_steps": ("count", ("solver.step",),
                          lambda r: r["solver.step"]["work"]),
    "solver.ns_per_node_step": (
        "ns", ("solver.step",),
        lambda r: (1e9 * r["solver.step"]["s"] / r["solver.step"]["work"]
                   if r["solver.step"]["work"] else 0.0)),
    "solver.solve_banded_s": ("s", ("solver.solve_banded",),
                              lambda r: r["solver.solve_banded"]["s"]),
    "solver.step_self_s": ("s", ("solver.step",),
                           lambda r: r["solver.step"]["self_s"]),
    "solver.simulate_self_s": ("s", ("solver.simulate",),
                               lambda r: r["solver.simulate"]["self_s"]),
    "model.field_build_s": ("s", ("model.field_build",),
                            lambda r: r["model.field_build"]["s"]),
    "model.field_build_calls": ("count", ("model.field_build",),
                                lambda r: r["model.field_build"]["calls"]),
    "model.reaction_eval_s": ("s", ("model.reaction_eval",),
                              lambda r: r["model.reaction_eval"]["s"]),
    "cli.write_trajectory_s": ("s", ("cli.write_trajectory",),
                               lambda r: r["cli.write_trajectory"]["s"]),
    "cli.read_trajectory_s": ("s", ("cli.read_trajectory",),
                              lambda r: r["cli.read_trajectory"]["s"]),
    "cli.trajectory_bytes": ("count", ("cli.write_trajectory",),
                             lambda r: r["cli.write_trajectory"]["work"]),
    "regimes.classify_s": ("s", ("regimes.classify",),
                           lambda r: r["regimes.classify"]["s"]),
    "regimes.classify_calls": ("count", ("regimes.classify",),
                               lambda r: r["regimes.classify"]["calls"]),
    "cli.sweep_overhead_s": (
        "s", ("regimes.classify",),
        lambda r: (r["cli.sweep"]["s"]
                   - _within(r, "regimes.classify", "cli.sweep"))),
    "closedform.construct_s": ("s", ("closedform.construct",),
                               lambda r: r["closedform.construct"]["s"]),
    "closedform.constructs": ("count", ("closedform.construct",),
                              lambda r: r["closedform.construct"]["calls"]),
    "solver.discrete_residual_s": (
        "s", ("solver.discrete_residual",),
        lambda r: r["solver.discrete_residual"]["s"]),
    "waves.shoot_s": ("s", ("waves.shoot",),
                      lambda r: r["waves.shoot"]["s"]),
    "waves.shoot_calls": ("count", ("waves.shoot",),
                          lambda r: r["waves.shoot"]["calls"]),
    "waves.case_iii_share": (
        "share", ("waves.shoot",),
        lambda r: (r["waves.shoot"]["work"] / r["waves.shoot"]["calls"]
                   if r["waves.shoot"]["calls"] else 0.0)),
    "waves.transform_s": ("s", ("waves.transform",),
                          lambda r: r["waves.transform"]["s"]),
    "analysis.track_s": ("s", ("analysis.track",),
                         lambda r: r["analysis.track"]["s"]),
    "analysis.fit_s": ("s", ("analysis.fit",),
                       lambda r: r["analysis.fit"]["s"]),
    "analysis.sandwich_s": ("s", ("analysis.sandwich",),
                            lambda r: r["analysis.sandwich"]["s"]),
    "analysis.ordering_s": ("s", ("analysis.ordering",),
                            lambda r: r["analysis.ordering"]["s"]),
}

# Metrics measured during set-up rather than in the passes.
SETUP_METRICS = {
    "model.setup_build_s": ("s", ("model.build",),
                            lambda r: r["model.build"]["s"]),
}


def layer_metrics(tracer, setup_epochs, pass_epochs):
    """Median over epochs of each per-layer metric, the metrics whose
    values disagreed between epochs (counts must repeat exactly) and the
    metrics whose spans are absent."""
    by_epoch = defaultdict(list)
    for sp in tracer.spans:
        by_epoch[sp[EPOCH]].append(sp)
    values, unsteady, absent = {}, [], []
    for table, epochs in ((LAYER_METRICS, pass_epochs),
                          (SETUP_METRICS, setup_epochs)):
        rows = [summarise(by_epoch[e]) for e in epochs]
        for name, (unit, needs, fn) in table.items():
            if any(n in tracer.absent for n in needs):
                values[name] = (0, unit)
                absent.append(name)
                continue
            vals = [fn(r) for r in rows]
            if unit == "count":
                if len(set(vals)) > 1:
                    unsteady.append(name)
                values[name] = (int(vals[0]), unit)
            else:
                values[name] = (float(median(vals)), unit)
    return values, unsteady, absent


def span_table(tracer, pass_epochs):
    """Per-span-name calls, time and self time per traced pass."""
    wanted = set(pass_epochs)
    spans = [sp for sp in tracer.spans if sp[EPOCH] in wanted]
    n = max(len(pass_epochs), 1)
    return {name: {"calls": row["calls"] // n,
                   "s_per_pass": round(row["s"] / n, 6),
                   "self_s_per_pass": round(row["self_s"] / n, 6)}
            for name, row in sorted(summarise(spans).items())}
