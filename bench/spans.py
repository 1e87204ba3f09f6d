"""In-memory span recorder that wraps the public functions of ``afmcavity``.

Spans are recorded from outside the package: ``install`` swaps each listed
module attribute for a timing wrapper and ``uninstall`` puts the originals
back.  A span is ``[name, start, end, parent, op]`` with ``parent`` the index
of the enclosing span (or -1) and ``op`` the id of the benchmark op that was
running.  Counts are recorded at the same boundaries.  Everything stays in
memory until the caller writes it out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute, span name).  ``cli`` imported ``load_config`` by name, so
# that binding is wrapped as well as the one in ``config``.
TIMED = [
    ("config", "load_config", "config.load_config"),
    ("cli", "load_config", "config.load_config"),
    ("spectra", "synthesize_map", "spectra.synthesize_map"),
    ("spectra", "add_noise", "spectra.add_noise"),
    ("spectra", "vertical_cut", "spectra.vertical_cut"),
    ("spectra", "map_to_csv", "spectra.map_to_csv"),
    ("spectra", "map_from_csv", "spectra.map_from_csv"),
    ("analysis", "extract_peaks", "analysis.extract_peaks"),
    ("analysis", "fit_avoided_crossing", "analysis.fit_avoided_crossing"),
    ("analysis", "field_linewidth", "analysis.field_linewidth"),
    ("analysis", "fit_t4_trend", "analysis.fit_t4_trend"),
    ("optimize", "levenberg_marquardt", "optimize.levenberg_marquardt"),
    ("phase", "phase_grid", "phase.phase_grid"),
]
# Called once per field column or raster point: counted, not timed.
COUNTED = [
    ("core", "magnon_branches", "core.magnon_branches.calls"),
    ("phase", "classify_phase", "phase.classify_phase.calls"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add_child(self, spans: list[list], counts: dict[str, float], parent: int) -> None:
        """Graft spans and counts recorded by a child process under span ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on Linux,
        so child timestamps are on the same axis as ours.
        """
        base = len(self.spans)
        for name, start, end, child_parent, _ in spans:
            self.spans.append(
                [name, start, end, parent if child_parent < 0 else base + child_parent, self.op]
            )
        for name, value in counts.items():
            self.counts[self.op][name] += value

    # --- wrapping ----------------------------------------------------------

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self._count(name, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, name, args, result) -> None:
        c = self.counts[self.op]
        if name == "spectra.synthesize_map":
            c["spectra.synthesize_map.cells"] += result.values.size
        elif name == "spectra.map_to_csv":
            c["spectra.csv_bytes"] += len(result)
        elif name == "spectra.map_from_csv":
            c["spectra.csv_bytes"] += len(args[0])
        elif name == "analysis.extract_peaks":
            c["analysis.extract_peaks.peaks"] += sum(len(col.positions) for col in result.columns)
        elif name == "analysis.fit_avoided_crossing":
            c["analysis.fit_avoided_crossing.converged"] += bool(result.converged)
        elif name == "optimize.levenberg_marquardt":
            c["optimize.levenberg_marquardt.iterations"] += result.iterations
            if self.parent_name() == "analysis.fit_avoided_crossing":
                c["analysis.fit_avoided_crossing.n_obs"] += result.residual.size
        elif name == "phase.phase_grid":
            c["phase.phase_grid.points"] += len(args[0]) * len(args[1])

    def _levenberg_marquardt(self, fn):
        """Time the solver and, separately, the model callbacks handed to it."""

        def callback(counter, model):
            @functools.wraps(model)
            def wrapper(x):
                self.counts[self.op][counter] += 1
                index = self.begin("optimize.callback")
                try:
                    return model(x)
                finally:
                    self.end(index)

            return wrapper

        timed = self._timed("optimize.levenberg_marquardt", fn)

        @functools.wraps(fn)
        def wrapper(fun, x0, jac=None, **kwargs):
            jac = None if jac is None else callback("optimize.jac_evals", jac)
            return timed(callback("optimize.fun_evals", fun), x0, jac=jac, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Replace the listed functions of ``package`` (the afmcavity module)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TIMED + COUNTED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            if name == "optimize.levenberg_marquardt":
                wrapped = self._levenberg_marquardt(original)
            elif (module_name, attr, name) in COUNTED:
                wrapped = self._counted(name, original)
            else:
                wrapped = self._timed(name, original)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> dict[tuple[str, str], float]:
    """Total self time per (op, span name): duration minus direct children.

    Spans on one thread nest strictly, so a span's children are disjoint and
    their durations can simply be summed.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: dict[tuple[str, str], float] = defaultdict(float)
    for (name, start, end, _, op), children in zip(spans, child_total):
        out[(op, name)] += (end - start) - children
    return out
