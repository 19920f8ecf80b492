"""In-memory spans around the public layer entry points of chargegame.

Only the traced run imports this module.  ``Tracer.install`` replaces each
entry point below with a wrapper, everywhere a chargegame module holds a
reference to it (``from .model import decompose_loads`` gives verify its
own reference, so patching the defining module alone would miss calls).
Every call records a span: name, parent span, start and end.  Self time
is a span's duration minus the time its child spans cover; it is
accumulated per entry point as spans close, and the raw spans are written
out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# Entry points per layer: (module, attribute); "Class.method" patches the
# class attribute, which every subclass inherits.
LAYERS = {
    "costs": [
        ("chargegame.costs", "CostFunction.value"),
        ("chargegame.costs", "CostFunction.derivative"),
    ],
    "model": [
        ("chargegame.model", "decompose_loads"),
        ("chargegame.model", "strategy_costs"),
        ("chargegame.model", "evaluate_costs"),
    ],
    "threeslot": [
        ("chargegame.threeslot", "solve_ce"),
        ("chargegame.threeslot", "marginal_imbalance"),
        ("chargegame.threeslot", "ce_costs"),
        ("chargegame.threeslot", "equilibrium_profile"),
    ],
    "dynamics": [("chargegame.dynamics", "solve_dynamics")],
    "verify": [
        ("chargegame.verify", "make_report"),
        ("chargegame.verify", "vi_gap"),
        ("chargegame.verify", "check_wardrop"),
        ("chargegame.verify", "check_coalition_optimality"),
        ("chargegame.verify", "check_cost_ordering"),
    ],
    "sweep": [
        ("chargegame.sweep", "run_sweep"),
        ("chargegame.sweep", "sweep_rows"),
    ],
    "cli": [
        ("chargegame.cli", "resolve_config"),
        ("chargegame.cli", "build_game"),
        ("chargegame.cli", "report_to_dict"),
        ("chargegame.sweep", "write_csv"),
        ("chargegame.sweep", "audits_to_dict"),
    ],
}

PACKAGE = "chargegame"


class Tracer:
    """Span store plus per-entry-point call counts, self and total time."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, on_return=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[idx] = end
                elapsed = end - start
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(self.counters, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every entry point in ``LAYERS``, with the ``HOOKS`` that
        count work from what an entry point returns."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == PACKAGE]
        for layer, entries in LAYERS.items():
            for module_name, attr in entries:
                module = sys.modules[module_name]
                name = f"{layer}.{attr.split('.')[-1]}"
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[method]
                    self._set(owner, method, self.wrap(name, original, HOOKS.get(name)))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, HOOKS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def totals(self) -> dict:
        """Calls, self and total seconds per entry point, plus counters."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counters": dict(self.counters),
        }

    def write(self, stem: str) -> None:
        """Write the spans: ``stem.json`` holds the name table and layout,
        ``stem.bin`` the four arrays back to back."""
        with open(stem + ".bin", "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)
        meta = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": [
                ["name", "i"], ["parent", "i"], ["start_s", "d"], ["end_s", "d"]
            ],
        }
        with open(stem + ".json", "w") as handle:
            json.dump(meta, handle)


def merge_totals(into: dict, other: dict) -> None:
    """Add the totals of another traced process into ``into``."""
    for key in ("calls", "self_s", "total_s", "counters"):
        bucket = into.setdefault(key, {})
        for name, value in other.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value


def subtract_totals(after: dict, before: dict) -> dict:
    out = {}
    for key in ("calls", "self_s", "total_s", "counters"):
        out[key] = {
            name: value - before.get(key, {}).get(name, 0)
            for name, value in after.get(key, {}).items()
        }
    return out


def dynamics_hook(counters: Counter, report) -> None:
    counters["dynamics.iterations"] += report.iterations
    if report.status.value == "max-iter-reached":
        counters["dynamics.maxiter_hits"] += 1


def sweep_hook(counters: Counter, result) -> None:
    counters["sweep.points"] += len(result.points)


HOOKS = {"dynamics.solve_dynamics": dynamics_hook, "sweep.run_sweep": sweep_hook}
