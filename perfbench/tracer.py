"""Outside-in per-layer tracing of the qreduce package.

Every public function defined in one of the layer modules is wrapped,
and every name that refers to it in any loaded ``qreduce`` module is
rebound to the wrapper, including names a caller imported with
``from ... import`` (``reduction.apply_comparator``, ``cli.run_reduction``,
``scaling.run_reduction``).  Calls inside the defining module resolve
through its globals, so they are wrapped too.

A span's self time is its duration minus the time of the wrapped spans it
encloses.  Spans are kept on one stack, so the tracer assumes calls into
the package come from one thread (``REDUCE_THREADS`` unset).
"""

import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("classical", "packets", "grid", "reduction", "comparator",
          "spectral", "scaling", "cli")


def _propagate_steps(counts, bound, result):
    args = bound.arguments
    steps = max(1, int(round(args["t_final"] / args["dt"])))
    grid = args["psi0"].grid
    counts["grid.propagate.steps"] += steps
    counts["grid.propagate.cell_steps"] += steps * grid.N ** grid.n


def _report_bytes(counts, bound, result):
    counts["cli.emit_report.bytes"] += sum(p.stat().st_size for p in result)


# Work counters recorded at the boundary where the work happens:
# span -> fn(counts, bound arguments, result).
COUNTERS = {
    "reduction.duhamel_curve": lambda c, b, r: c.update(
        {"reduction.duhamel_curve.points": len(r)}),
    "reduction.assemble_bounds": lambda c, b, r: c.update(
        {"reduction.assemble_bounds.snapshots": len(r.times)}),
    "comparator.within_magnitude": lambda c, b, r: c.update(
        {"comparator.within_magnitude.divergent": int(r["divergent"])}),
    "grid.propagate": _propagate_steps,
    "classical.integrate_flow": lambda c, b, r: c.update(
        {"classical.integrate_flow.steps": len(r.times) - 1}),
    "scaling.hepp_experiment": lambda c, b, r: c.update(
        {"scaling.hepp_experiment.failed_rows":
         sum(row["failed"] is not None for row in r["rows"])}),
    "cli.emit_report": _report_bytes,
}


class Tracer:
    """Wraps the layer functions of a package; ``uninstall`` restores them."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.raised = Counter()
        self.counts = Counter()
        self._stack = []
        self._rebound = []

    def _wrap(self, span: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[span] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[span] += elapsed - self._stack.pop()
                self.calls[span] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if counter is not None:
                counter(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self, package: str = "qreduce"):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._rebound.append((namespace, name, obj))
                    namespace[name] = wrappers[obj]

    def uninstall(self):
        for namespace, name, original in reversed(self._rebound):
            namespace[name] = original
        self._rebound.clear()
