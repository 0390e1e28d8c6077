"""Per-layer spans around the stabmix modules, recorded from outside them.

A wrapper is installed at every place a caller looks a function up: the
defining module and each module that imported the name directly (for
example ``analysis.smallest_eigenvalue`` as well as
``solvers.smallest_eigenvalue``).  Calls the package makes internally are
therefore seen as well as calls the benchmark makes.  Spans stay in memory
and are reduced to per-layer metrics when the traced pass ends.

A layer's self time is its span's duration minus the durations of its
child spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field

# span name -> modules in which that name is looked up by callers
BINDINGS = {
    "mesh.build_structured_mesh": ("mesh", "analysis", "cli"),
    "spaces.MixedSpace": ("spaces", "analysis", "cli"),
    "forms.elastic_parts": ("forms",),
    "forms.assemble_elastic": ("forms",),
    "forms.assemble_divdiv": ("forms",),
    "forms.assemble_coupling": ("forms",),
    "forms.assemble_load": ("forms",),
    "forms.assemble_h1_gram": ("forms",),
    "forms.assemble_pressure_mass": ("forms",),
    "forms.assemble_system": ("forms",),
    "solvers.smallest_eigenvalue": ("solvers", "analysis"),
    "solvers.solve_saddle": ("solvers", "analysis"),
    "analysis.find_stability_limits": ("analysis", "cli"),
    "analysis.run_convergence": ("analysis", "cli"),
    "analysis.estimate_inf_sup": ("analysis", "cli"),
    "analysis.compute_errors": ("analysis",),
    "analysis.is_stable": ("analysis",),
    "cli.main": ("cli",),
    "cli.run": ("cli",),
    "cli.emit": ("cli",),
}

# forms metric -> the functions whose self time it sums
FORMS_PARTS = {
    "elastic": ("elastic_parts", "assemble_elastic"),
    "divdiv": ("assemble_divdiv",),
    "coupling": ("assemble_coupling",),
    "load": ("assemble_load",),
    "h1_gram": ("assemble_h1_gram",),
    "pressure_mass": ("assemble_pressure_mass",),
}

EIG = "solvers.smallest_eigenvalue"


@dataclass
class Span:
    name: str
    site: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _describe(name: str, args, result) -> dict:
    """What a span keeps of its call: sizes, nnz and eigenvalue signs."""
    if name == EIG:
        return {"n": args[0].shape[0], "value": float(result)}
    if name == "spaces.MixedSpace":
        return {"dofs": len(result.free_dofs)}
    if name.startswith("forms."):
        parts = result if isinstance(result, tuple) else (result,)
        return {"nnz": sum(int(getattr(m, "nnz", 0)) for m in parts)}
    return {}


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, site: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = Span(name, site, stack[-1] if stack else None,
                        time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _describe(name, args, result)
            return result

        return traced

    def __enter__(self):
        for name, sites in BINDINGS.items():
            attr = name.split(".", 1)[1]
            for site in sites:
                module = self.modules[site]
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{site}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, site, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False


def _inferred_path(span: Span, dense_cutoff) -> str:
    """Solver path of one eigenvalue call, inferred from size and sign.

    Below the cutoff the call is dense LAPACK; above it a successful
    Cholesky (positive result) leads to Lanczos, and a failed one
    (nonpositive result) to the indefinite ARPACK chain.
    """
    if "n" not in span.info:
        return "raised"
    if span.info["n"] <= dense_cutoff:
        return "dense"
    return "cholesky" if span.info["value"] > 0.0 else "indefinite"


def layer_metrics(spans: list[Span], wall: float, dense_cutoff) -> dict:
    """Per-layer metrics of one traced pass whose timed work took `wall` s.

    Path counts are -1 when the solver exposes no dense cutoff to infer
    them from.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return sum(spans[i].seconds for i in named(name))

    def self_time(name):
        return sum(spans[i].seconds - child[i] for i in named(name))

    def under(i, name):
        p = spans[i].parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    eig = named(EIG)
    m = {
        "solvers.eig_s": total(EIG),
        "solvers.eig_calls": len(eig),
        "solvers.eig_ms_p50": (1e3 * statistics.median(spans[i].seconds for i in eig)
                               if eig else 0.0),
        "solvers.saddle_s": total("solvers.solve_saddle"),
        "solvers.saddle_calls": len(named("solvers.solve_saddle")),
    }
    for path in ("dense", "cholesky", "indefinite"):
        m[f"solvers.path_{path}"] = (
            -1 if dense_cutoff is None else
            sum(_inferred_path(spans[i], dense_cutoff) == path for i in eig))

    scans = named("analysis.find_stability_limits")
    scan_probes = sum(under(i, "analysis.find_stability_limits") for i in eig)
    m.update({
        "analysis.probes": sum(spans[i].site == "analysis" for i in eig),
        "analysis.probes_per_scan": scan_probes / len(scans) if scans else 0.0,
        "analysis.limits_self_s": self_time("analysis.find_stability_limits"),
        "analysis.infsup_self_s": self_time("analysis.estimate_inf_sup"),
        "analysis.errors_s": total("analysis.compute_errors"),
        "analysis.convergence_self_s": self_time("analysis.run_convergence"),
    })

    forms = [i for i, s in enumerate(spans) if s.name.startswith("forms.")]
    for part, fns in FORMS_PARTS.items():
        m[f"forms.{part}_s"] = sum(self_time(f"forms.{fn}") for fn in fns)
    m["forms.assemble_s"] = sum(
        spans[i].seconds for i in forms
        if spans[i].parent is None or not spans[spans[i].parent].name.startswith("forms."))
    m["forms.calls"] = len(forms)
    m["forms.nnz"] = sum(spans[i].info.get("nnz", 0) for i in forms)

    spaces = named("spaces.MixedSpace")
    m.update({
        "mesh.build_s": total("mesh.build_structured_mesh"),
        "mesh.calls": len(named("mesh.build_structured_mesh")),
        "spaces.build_s": total("spaces.MixedSpace"),
        "spaces.dofs_max": max((spans[i].info.get("dofs", 0) for i in spaces),
                               default=0),
        "cli.emit_s": total("cli.emit"),
    })
    covered = sum(s.seconds for s in spans if s.parent is None)
    m["trace.unattributed_frac"] = (wall - covered) / wall if wall > 0 else 0.0
    return m
