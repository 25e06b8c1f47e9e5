"""In-memory span tracer that wraps multimag's public functions from outside.

Each wrapped function is replaced at the site it is imported into (the
module whose globals the caller looks it up in, or the class for methods),
so the program's own source stays untouched.  A span is
``(name, start, end, parent, phase)``; spans share the tracer's run id and
are written out when the run ends.  Counters (panel pairs, Krylov
iterations, coupling iterations, solves with unchanged data) are recorded
at the same boundaries, split by the benchmark phase they fall in.

Krylov iteration counts come from wrapping the ``scipy.sparse.linalg``
solvers the modules call (through a proxy for their ``spla`` alias) with a
counting callback; the caller's own arguments are passed through
unchanged, and a callback the caller supplies is still invoked.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): functions looked up in that module's
# globals by the code that calls them.
FUNCTION_SITES = (
    ("multimag.config", "load_mesh", "mesh.load_mesh"),
    ("multimag.strayfield", "make_strayfield_workspace", "strayfield.make_workspace"),
    ("multimag.strayfield", "assemble_bem", "bem.assemble_bem"),
    ("multimag.strayfield", "assemble_mass", "fem.assemble"),
    ("multimag.strayfield", "assemble_stiffness", "fem.assemble"),
    ("multimag.strayfield", "solve_spd", "fem.solve_spd"),
    ("multimag.multiscale", "make_multiscale_workspace", "multiscale.make_workspace"),
    ("multimag.multiscale", "assemble_bem", "bem.assemble_bem"),
    ("multimag.multiscale", "assemble_stiffness", "fem.assemble"),
    ("multimag.multiscale", "assemble_weighted_stiffness", "fem.assemble"),
    ("multimag.multiscale", "solve_spd", "fem.solve_spd"),
    ("multimag.multiscale", "eval_double_layer", "bem.eval"),
    ("multimag.multiscale", "eval_single_layer", "bem.eval"),
    ("multimag.multiscale", "transfer_u1_to_omega2", "multiscale.transfer"),
    ("multimag.multiscale", "solve_uapp", "multiscale.uapp"),
    ("multimag.multiscale", "conormal_flux", "multiscale.flux"),
    ("multimag.multiscale", "solve_coupling", "multiscale.coupling"),
    ("multimag.bem", "panel_integrals", "bem.panel_integrals"),
    ("multimag.integrator", "assemble_mass", "fem.assemble"),
    ("multimag.integrator", "assemble_stiffness", "fem.assemble"),
    ("multimag.integrator", "make_llg_workspace", "integrator.workspace"),
    ("multimag.integrator", "evaluate_contributions", "integrator.contrib"),
    ("multimag.integrator", "llg_step", "integrator.llg_step"),
    ("multimag.integrator", "build_tangent_frame", "integrator.frame"),
    # run() imports energy from diagnostics on every call
    ("multimag.diagnostics", "energy", "diagnostics.energy"),
)

# (module, class, method, span name)
METHOD_SITES = (
    ("multimag.integrator", "LlgWorkspace", "cross_matrix", "integrator.cross"),
    ("multimag.integrator", "LlgWorkspace", "frame_matrix", "integrator.frame_matrix"),
    ("multimag.fields", "UniaxialContribution", "evaluate", "fields.uniaxial"),
    ("multimag.fields", "CubicContribution", "evaluate", "fields.cubic"),
    ("multimag.strayfield", "StrayfieldContribution", "evaluate", "strayfield.eval"),
    ("multimag.multiscale", "MultiscaleContribution", "evaluate", "multiscale.evaluate"),
)

# (module holding the ``spla`` alias, solver, span name, iteration counter)
SOLVER_SITES = (
    ("multimag.integrator", "bicgstab", "integrator.krylov", "integrator.bicgstab_iters"),
    ("multimag.integrator", "gmres", "integrator.krylov", "integrator.gmres_iters"),
    ("multimag.fem", "cg", "fem.pcg", "fem.pcg_iters"),
)


class _SolverProxy:
    """Stands in for a module's ``scipy.sparse.linalg`` alias."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._restore: list = []
        self._last_uapp_rhs = None

    # -- recording -------------------------------------------------------
    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a span around the benchmark's own calls."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.sid = tracer._enter(name)

            def __exit__(self, *exc):
                tracer._exit(self.sid)
                return False

        return _Span()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.phase, name)] += int(n)

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- observers -------------------------------------------------------
    def _observe_panels(self, args, kwargs, result):
        geo, points = args[0], args[1]
        self.count("bem.panel_pairs", np.shape(points)[0] * geo.vertices.shape[0])

    def _observe_uapp(self, args, kwargs, result):
        rhs = np.ascontiguousarray(args[1], dtype=np.float64).tobytes()
        self.count("multiscale.uapp_solves")
        if rhs == self._last_uapp_rhs:
            self.count("multiscale.uapp_repeats")
        self._last_uapp_rhs = rhs

    def _observe_coupling(self, args, kwargs, result):
        self.count("multiscale.coupling_iters", result.iterations)

    def _counting_solver(self, span_name, fn, counter, call_counter):
        tracer = self
        timed = self.wrap(span_name, fn)

        @functools.wraps(fn)
        def solver(*args, **kwargs):
            tracer.count(call_counter)
            if counter is not None:
                user_cb = kwargs.get("callback")

                def callback(xk):
                    tracer.count(counter)
                    if user_cb is not None:
                        user_cb(xk)

                kwargs = dict(kwargs, callback=callback)
                if fn.__name__ == "gmres":
                    # one callback per inner iteration; without a type
                    # scipy warns and falls back to its legacy counting
                    kwargs.setdefault("callback_type", "pr_norm")
            return timed(*args, **kwargs)

        return solver

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        observers = {
            "bem.panel_integrals": self._observe_panels,
            "multiscale.uapp": self._observe_uapp,
            "multiscale.coupling": self._observe_coupling,
        }
        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self.wrap(name, getattr(module, attr), observers.get(name)))
        for module_name, cls_name, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        proxies: dict = {}
        for module_name, solver, name, counter in SOLVER_SITES:
            module = importlib.import_module(module_name)
            spla = module.__dict__["spla"]
            overrides = proxies.setdefault(module_name, (module, spla, {}))[2]
            overrides[solver] = self._counting_solver(
                name, getattr(spla, solver), counter, f"{module_name.split('.')[1]}.{solver}_calls"
            )
        for module_name, (module, spla, overrides) in proxies.items():
            self._patch(module, "spla", _SolverProxy(spla, overrides))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction -------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, split by phase."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = {}
        for sid, (name, start, end, parent, phase) in enumerate(self.spans):
            for key in (name, f"{phase}:{name}"):
                row = table.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
                row["calls"] += 1
                row["s"] += end - start
                row["self_s"] += end - start - child_time[sid]
        return table

    def counter(self, name: str, phase: str | None = None) -> int:
        return sum(
            v for (p, n), v in self.counts.items() if n == name and (phase is None or p == phase)
        )

    def write(self, path: str) -> None:
        """Write spans as JSON lines: name, start, end, parent, phase, run id."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "phase": phase,
                            "run": self.run_id,
                        }
                    )
                    + "\n"
                )
