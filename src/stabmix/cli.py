"""Command-line front end: stability, convergence and inf-sup studies.

Every default is printed in a provenance header comment so emitted tables
are self-describing: physical defaults (mu, m1, m2, delta_gamma, the
study load factors) are the reference values of the model problems, and
detection defaults (scan step, bisection tolerance, load cap, mesh
family) are the documented tool choices.  Output is byte-identical for
identical run specifications.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .analysis import (ConvergenceTable, ProblemConfig, StabilityReport,
                       estimate_inf_sup, find_stability_limits,
                       run_convergence)
from .mesh import build_structured_mesh
from .spaces import MixedSpace

DEFAULT_MU = 40.0
DEFAULT_M1 = 320.0
DEFAULT_M2 = {1: 0.0, 2: 1.36}
DEFAULT_DELTA_GAMMA = 1.0
DEFAULT_SCAN_STEP = 0.25
DEFAULT_BISECT_TOL = 0.01
DEFAULT_CAP = 1e6
DEFAULT_MESHES = (5, 9, 17, 33)
DEFAULT_GAMMA_TILDE = {1: 7.125, 2: 3.23}

FORMATS = ("csv", "json", "pretty")


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved description of one CLI run."""

    command: str
    problem: int
    meshes: tuple
    mu: float
    m1: float
    m2: float
    gamma_tilde: float
    delta_gamma: float
    scan_step: float
    bisect_tol: float
    cap: float
    classical: bool
    drop_bubbles: bool
    fmt: str
    output: str | None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabmix",
        description="Stabilized mixed finite elements on the reference "
                    "square: critical loads, convergence, inf-sup estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", type=int, choices=(1, 2), default=1,
                       help="model problem: 1 clamped sides, 2 normal-only")
        p.add_argument("--nodes", type=str, default=None,
                       help="comma-separated nodes-per-side list "
                            "(default 5,9,17,33)")
        p.add_argument("--mu", type=float, default=DEFAULT_MU)
        p.add_argument("--m1", type=float, default=None,
                       help="linear stabilization coefficient (default 320)")
        p.add_argument("--m2", type=float, default=None,
                       help="quadratic stabilization coefficient "
                            "(default 0 for problem 1, 1.36 for problem 2)")
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="pretty")
        p.add_argument("--output", type=str, default=None,
                       help="write to this path instead of stdout")

    p_stab = sub.add_parser("stability", help="critical-load tables")
    common(p_stab)
    p_stab.add_argument("--scan-step", type=float, default=DEFAULT_SCAN_STEP)
    p_stab.add_argument("--bisect-tol", type=float, default=DEFAULT_BISECT_TOL)
    p_stab.add_argument("--cap", type=float, default=DEFAULT_CAP)
    p_stab.add_argument("--classical", action="store_true",
                        help="drop the stabilization term (M = 0)")

    p_conv = sub.add_parser("convergence", help="manufactured-solution errors")
    common(p_conv)
    p_conv.add_argument("--gamma-tilde", type=float, default=None,
                        help="load factor (default 7.125 for problem 1, "
                             "3.23 for problem 2)")
    p_conv.add_argument("--delta-gamma", type=float,
                        default=DEFAULT_DELTA_GAMMA)
    p_conv.add_argument("--classical", action="store_true",
                        help="drop the stabilization term (M = 0)")

    p_inf = sub.add_parser("infsup", help="discrete inf-sup estimates")
    common(p_inf)
    p_inf.add_argument("--drop-bubbles", action="store_true",
                       help="control mode: plain P1/P1 without bubbles")
    return parser


def parse_args(argv) -> RunSpec:
    """Parse CLI arguments into a RunSpec; exits with code 2 on usage errors."""
    parser = _build_parser()
    ns = parser.parse_args(argv)

    if ns.nodes is None:
        meshes = DEFAULT_MESHES
    else:
        try:
            meshes = tuple(int(tok) for tok in ns.nodes.split(",") if tok != "")
        except ValueError:
            parser.error(f"--nodes expects comma-separated integers, got {ns.nodes!r}")
        if not meshes:
            parser.error("--nodes list must not be empty")
        if any(n < 2 for n in meshes):
            parser.error(f"--nodes entries must be >= 2, got {ns.nodes!r}")
    non_finite = [f"--{k.replace('_', '-')}" for k, v in vars(ns).items()
                  if isinstance(v, float) and not math.isfinite(v)]
    if non_finite:
        parser.error(f"{', '.join(non_finite)} must be finite")
    if ns.mu <= 0:
        parser.error(f"--mu must be positive, got {ns.mu}")

    classical = getattr(ns, "classical", False)
    m1 = DEFAULT_M1 if ns.m1 is None else ns.m1
    m2 = DEFAULT_M2[ns.problem] if ns.m2 is None else ns.m2
    if classical:
        m1, m2 = 0.0, 0.0
    if m1 < 0 or m2 < 0:
        parser.error("stabilization coefficients must be nonnegative")

    gamma_tilde = getattr(ns, "gamma_tilde", None)
    if gamma_tilde is None:
        gamma_tilde = DEFAULT_GAMMA_TILDE[ns.problem]
    scan_step = getattr(ns, "scan_step", DEFAULT_SCAN_STEP)
    bisect_tol = getattr(ns, "bisect_tol", DEFAULT_BISECT_TOL)
    cap = getattr(ns, "cap", DEFAULT_CAP)
    if scan_step <= 0 or bisect_tol <= 0 or cap <= 0:
        parser.error("--scan-step, --bisect-tol and --cap must be positive")

    return RunSpec(
        command=ns.command,
        problem=ns.problem,
        meshes=meshes,
        mu=ns.mu,
        m1=m1,
        m2=m2,
        gamma_tilde=gamma_tilde,
        delta_gamma=getattr(ns, "delta_gamma", DEFAULT_DELTA_GAMMA),
        scan_step=scan_step,
        bisect_tol=bisect_tol,
        cap=cap,
        classical=classical,
        drop_bubbles=getattr(ns, "drop_bubbles", False),
        fmt=ns.fmt,
        output=ns.output,
    )


def _config(spec: RunSpec, n: int) -> ProblemConfig:
    return ProblemConfig(problem=spec.problem, n=n, mu=spec.mu, m1=spec.m1,
                         m2=spec.m2, gamma_tilde=spec.gamma_tilde,
                         delta_gamma=spec.delta_gamma,
                         scan_step=spec.scan_step, bisect_tol=spec.bisect_tol,
                         gamma_cap=spec.cap)


def run(spec: RunSpec):
    """Execute the run and return the report object for emission."""
    if spec.command == "stability":
        return [find_stability_limits(_config(spec, n)) for n in spec.meshes]
    if spec.command == "convergence":
        return run_convergence(_config(spec, spec.meshes[0]), spec.meshes)
    if spec.command == "infsup":
        rows = []
        for n in spec.meshes:
            space = MixedSpace(build_structured_mesh(n), problem=spec.problem,
                               include_bubbles=not spec.drop_bubbles)
            rows.append((n, estimate_inf_sup(space)))
        return rows
    raise ValueError(f"unknown command {spec.command!r}")


def _defaults_dict(spec: RunSpec | None):
    if spec is None:
        return {}
    out = {"mu": spec.mu, "m1": spec.m1, "m2": spec.m2,
           "meshes": list(spec.meshes)}
    if spec.command == "stability":
        out.update(scan_step=spec.scan_step, bisect_tol=spec.bisect_tol,
                   cap=spec.cap)
    if spec.command == "convergence":
        out.update(gamma_tilde=spec.gamma_tilde, delta_gamma=spec.delta_gamma)
    return out


def _provenance_lines(spec: RunSpec):
    lines = [
        f"# model defaults: mu={spec.mu:g} m1={spec.m1:g} m2={spec.m2:g} "
        f"(reference stabilized setup for problem {spec.problem}"
        + ("; classical M=0 requested" if spec.classical else "") + ")",
    ]
    if spec.command == "stability":
        lines.append(
            f"# detection defaults: scan_step={spec.scan_step:g} "
            f"bisect_tol={spec.bisect_tol:g} cap={spec.cap:g} "
            "(two-decimal critical loads, unbounded beyond the cap)")
    if spec.command == "convergence":
        lines.append(
            f"# study defaults: gamma_tilde={spec.gamma_tilde:g} "
            f"delta_gamma={spec.delta_gamma:g} "
            "(reference load factor, unit increment)")
    lines.append(
        f"# mesh family: {','.join(str(n) for n in spec.meshes)} "
        "(nodes per side, halving h)")
    return lines


def _fmt_load(value: float, decimals: int = 2) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{decimals}f}"


def _json_load(value: float):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def emit(report, fmt: str, spec: RunSpec | None = None) -> str:
    """Render a report in csv, json or pretty form."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    if isinstance(report, ConvergenceTable):
        return _emit_convergence(report, fmt, spec)
    if isinstance(report, list) and report and isinstance(report[0], StabilityReport):
        return _emit_stability(report, fmt, spec)
    if isinstance(report, list):
        return _emit_infsup(report, fmt, spec)
    raise ValueError(f"cannot emit report of type {type(report)!r}")


def _emit_stability(reports, fmt, spec):
    if fmt == "csv":
        lines = _provenance_lines(spec) if spec else []
        lines.append("problem,nodes,gamma_m,gamma_M")
        for r in reports:
            lines.append(f"{r.problem},{r.n},{_fmt_load(r.gamma_m)},{_fmt_load(r.gamma_M)}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = [{"problem": r.problem, "nodes": r.n,
                 "gamma_m": _json_load(r.gamma_m),
                 "gamma_M": _json_load(r.gamma_M)} for r in reports]
        return json.dumps({"command": "stability",
                           "defaults": _defaults_dict(spec), "rows": rows},
                          sort_keys=True, separators=(",", ":")) + "\n"
    lines = _provenance_lines(spec) if spec else []
    lines.append(f"{'nodes':>8s}  {'gamma_m':>10s}  {'gamma_M':>10s}")
    for r in reports:
        gm = _fmt_load(r.gamma_m) if math.isfinite(r.gamma_m) else "-inf"
        gM = _fmt_load(r.gamma_M) if math.isfinite(r.gamma_M) else "+inf"
        lines.append(f"{f'{r.n}x{r.n}':>8s}  {gm:>10s}  {gM:>10s}")
    return "\n".join(lines) + "\n"


def _emit_convergence(table, fmt, spec):
    rows = table.rows
    if fmt == "csv":
        lines = _provenance_lines(spec) if spec else []
        lines.append("nodes,err_p_L2,err_w_H1,order")
        for r in rows:
            order = "" if r.order is None else f"{r.order:.2f}"
            lines.append(f"{r.n},{r.err_p_L2:.4e},{r.err_w_H1:.4e},{order}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        out = [{"nodes": r.n, "err_p_L2": r.err_p_L2, "err_w_H1": r.err_w_H1,
                "order": r.order} for r in rows]
        return json.dumps({"command": "convergence", "problem": table.problem,
                           "gamma_tilde": table.gamma_tilde,
                           "defaults": _defaults_dict(spec), "rows": out},
                          sort_keys=True, separators=(",", ":")) + "\n"
    lines = _provenance_lines(spec) if spec else []
    lines.append(f"{'nodes':>8s}  {'||p-p_h||_0':>12s}  {'||w-w_h||_1':>12s}  {'order':>6s}")
    for r in rows:
        order = "--" if r.order is None else f"{r.order:.2f}"
        lines.append(f"{f'{r.n}x{r.n}':>8s}  {r.err_p_L2:>12.4e}  "
                     f"{r.err_w_H1:>12.4e}  {order:>6s}")
    return "\n".join(lines) + "\n"


def _emit_infsup(rows, fmt, spec):
    if fmt == "csv":
        lines = _provenance_lines(spec) if spec else []
        lines.append("nodes,beta1")
        for n, b in rows:
            lines.append(f"{n},{b:.6f}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        out = [{"nodes": n, "beta1": b} for n, b in rows]
        return json.dumps({"command": "infsup",
                           "defaults": _defaults_dict(spec), "rows": out},
                          sort_keys=True, separators=(",", ":")) + "\n"
    lines = _provenance_lines(spec) if spec else []
    lines.append(f"{'nodes':>8s}  {'beta1':>8s}")
    for n, b in rows:
        lines.append(f"{f'{n}x{n}':>8s}  {b:>8.4f}")
    return "\n".join(lines) + "\n"


def parse_emitted_json(text: str) -> dict:
    """Inverse of the json emitter: restores inf-valued loads as floats."""
    doc = json.loads(text)
    for row in doc.get("rows", []):
        for key in ("gamma_m", "gamma_M"):
            if key in row and isinstance(row[key], str):
                row[key] = float(row[key])
    return doc


def main(argv=None) -> int:
    spec = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report = run(spec)
        text = emit(report, spec.fmt, spec)
    except Exception as err:
        print(f"stabmix: error: {err}", file=sys.stderr)
        return 1
    if spec.output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(spec.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        print(f"stabmix: cannot write {spec.output!r}: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
