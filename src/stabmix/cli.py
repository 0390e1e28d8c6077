"""Command-line front end: stability, convergence and inf-sup studies.

Every default is printed in a provenance header comment so emitted tables
are self-describing: physical defaults (mu, m1, m2, delta_gamma) are those
of ProblemConfig, which also validates them, the critical-load tolerance
and load cap are constants of analysis, and the study load factors and the
mesh family are set here.  Only stability and convergence take mu, m1 and
m2: they cannot change an inf-sup constant.  --m1 0 --m2 0 sets the weight
M = m1*|gt| + m2*gt^2 to zero, the classical method, which the header
names; it says "halving h" only when each n - 1 doubles.  Each command's
table is a list of columns rendered by one csv, one json and one pretty
renderer.  Output is byte-identical for identical run specifications.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, fields, replace

from .analysis import (BISECT_TOL, GAMMA_CAP, ProblemConfig, estimate_inf_sup,
                       find_stability_limits, run_convergence)
from .mesh import build_structured_mesh
from .spaces import MixedSpace

DEFAULT_MESHES = (5, 9, 17, 33)
DEFAULT_GAMMA_TILDE = {1: 7.125, 2: 3.23}

FORMATS = ("csv", "json", "pretty")

InfSupRow = namedtuple("InfSupRow", "n beta1")


@dataclass(frozen=True)
class RunSpec:
    """Fully resolved description of one CLI run; config is the first
    mesh's."""

    command: str
    meshes: tuple
    config: ProblemConfig
    drop_bubbles: bool
    fmt: str
    output: str | None


def _json(value):
    """A column value as json writes it: infinite floats as "inf" and "-inf"."""
    return ("inf" if value > 0 else "-inf") if value in (math.inf, -math.inf) else value


def _load(plus_inf: str):
    """Two-decimal load; infinities print as plus_inf or -inf."""
    return lambda v: (plus_inf if v > 0 else "-inf") if math.isinf(v) else f"{v:.2f}"


def _order(missing: str):
    return lambda v: missing if v is None else f"{v:.2f}"


# One output column: its csv header and json key, the row attribute it
# shows, the csv and pretty renderings of that value (json: _json), and its
# pretty header and width (no pretty header: csv and json only).
Column = namedtuple("Column", "key attr csv pretty header width")
# A command's columns, and the settings its provenance header and json
# defaults add (ProblemConfig -> {key: value}), under a label and a note.
Table = namedtuple("Table", "columns settings label note")

_NODES = Column("nodes", "n", str, "{0}x{0}".format, "nodes", 8)
_SCI = "{:.4e}".format
_LOAD = (_load("inf"), _load("+inf"))
TABLES = {
    "stability": Table(
        (Column("problem", "problem", str, None, None, 0), _NODES,
         Column("gamma_m", "gamma_m", *_LOAD, "gamma_m", 10),
         Column("gamma_M", "gamma_M", *_LOAD, "gamma_M", 10)),
        lambda cfg: {"bisect_tol": BISECT_TOL, "cap": GAMMA_CAP}, "detection",
        "two-decimal critical loads, unbounded beyond the cap"),
    "convergence": Table(
        (_NODES,
         Column("err_p_L2", "err_p_L2", _SCI, _SCI, "||p-p_h||_0", 12),
         Column("err_w_H1", "err_w_H1", _SCI, _SCI, "||w-w_h||_1", 12),
         Column("order", "order", _order(""), _order("--"), "order", 6)),
        lambda cfg: {"gamma_tilde": cfg.gamma_tilde,
                     "delta_gamma": cfg.delta_gamma},
        "study", "reference load factor, unit increment"),
    "infsup": Table(
        (_NODES, Column("beta1", "beta1", "{:.6f}".format, "{:.4f}".format, "beta1", 8)),
        lambda cfg: {}, None, None),
}

# argparse destinations that are ProblemConfig fields
_CONFIG_FIELDS = {f.name for f in fields(ProblemConfig)}


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
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="pretty")
        p.add_argument("--output", type=str, default=None,
                       help="write to this path instead of stdout")

    p_stab = sub.add_parser("stability", help="critical-load tables")
    p_conv = sub.add_parser("convergence", help="manufactured-solution errors")
    for p in (p_stab, p_conv):
        common(p)
        p.add_argument("--mu", type=float)
        p.add_argument("--m1", type=float,
                       help="linear stabilization coefficient (default 320)")
        p.add_argument("--m2", type=float,
                       help="quadratic stabilization coefficient "
                            "(default 0 for problem 1, 1.36 for problem 2)")
    p_conv.add_argument("--gamma-tilde", type=float,
                        help="load factor (default 7.125 for problem 1, "
                             "3.23 for problem 2)")

    p_inf = sub.add_parser("infsup", help="discrete inf-sup estimates")
    common(p_inf)
    p_inf.add_argument("--drop-bubbles", action="store_true",
                       help="control mode: plain P1/P1 without bubbles")
    return parser


def parse_args(argv) -> RunSpec:
    """Parse CLI arguments into a RunSpec; exits with code 2 on usage errors.

    Omitted model options take the ProblemConfig defaults, and every value
    is validated by building the ProblemConfig of each mesh.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)

    meshes = DEFAULT_MESHES
    if ns.nodes is not None:
        try:
            meshes = tuple(int(tok) for tok in ns.nodes.split(",") if tok != "")
        except ValueError:
            parser.error(f"--nodes expects comma-separated integers, got {ns.nodes!r}")
        if not meshes:
            parser.error("--nodes list must not be empty")

    opts = {k: v for k, v in vars(ns).items()
            if k in _CONFIG_FIELDS and v is not None}
    opts.setdefault("gamma_tilde", DEFAULT_GAMMA_TILDE[ns.problem])
    try:
        configs = [ProblemConfig(n=n, **opts) for n in meshes]
    except ValueError as err:
        parser.error(str(err))

    return RunSpec(command=ns.command, meshes=meshes, config=configs[0],
                   drop_bubbles=getattr(ns, "drop_bubbles", False),
                   fmt=ns.fmt, output=ns.output)


def run(spec: RunSpec):
    """Execute the run and return the report object for emission."""
    if spec.command == "stability":
        return [find_stability_limits(replace(spec.config, n=n))
                for n in spec.meshes]
    if spec.command == "convergence":
        return run_convergence(spec.config, spec.meshes)
    if spec.command == "infsup":
        rows = []
        for n in spec.meshes:
            space = MixedSpace(build_structured_mesh(n),
                               problem=spec.config.problem,
                               include_bubbles=not spec.drop_bubbles)
            rows.append(InfSupRow(n, estimate_inf_sup(space)))
        return rows
    raise ValueError(f"unknown command {spec.command!r}")


def _provenance_lines(spec: RunSpec, table: Table):
    cfg, meshes = spec.config, spec.meshes
    ref = ProblemConfig(problem=cfg.problem)
    method = ("classical method M=0" if cfg.m1 == cfg.m2 == 0 else
              "reference stabilized setup" if (cfg.mu, cfg.m1, cfg.m2) ==
              (ref.mu, ref.m1, ref.m2) else "given weights, not the reference setup")
    lines = [f"# model defaults: mu={cfg.mu:g} m1={cfg.m1:g} m2={cfg.m2:g} "
             f"({method} for problem {cfg.problem})"]
    settings = table.settings(cfg)
    if settings:
        values = " ".join(f"{key}={value:g}" for key, value in settings.items())
        lines.append(f"# {table.label} defaults: {values} ({table.note})")
    halving = len(meshes) > 1 and all(
        b - 1 == 2 * (a - 1) for a, b in zip(meshes, meshes[1:]))
    lines.append(f"# mesh family: {','.join(str(n) for n in meshes)} "
                 f"(nodes per side{', halving h' if halving else ''})")
    return lines


def _csv(table: Table, rows):
    return [",".join(c.key for c in table.columns)] + [
        ",".join(c.csv(getattr(r, c.attr)) for c in table.columns) for r in rows]


def _pretty(table: Table, rows):
    cols = [c for c in table.columns if c.header]

    def line(cells):
        return "  ".join(f"{text:>{c.width}s}" for c, text in zip(cols, cells))

    return [line(c.header for c in cols)] + [
        line(c.pretty(getattr(r, c.attr)) for c in cols) for r in rows]


def emit(report, spec: RunSpec) -> str:
    """Render the report of spec.command in spec.fmt: csv, json or pretty."""
    if spec.fmt not in FORMATS:
        raise ValueError(f"unknown format {spec.fmt!r}; expected one of {FORMATS}")
    table, cfg = TABLES[spec.command], spec.config
    rows, extra = report, {}
    if spec.command == "convergence":
        rows = report.rows
        extra = {"problem": report.problem, "gamma_tilde": report.gamma_tilde}
    if spec.fmt == "json":
        defaults = {"mu": cfg.mu, "m1": cfg.m1, "m2": cfg.m2,
                    "meshes": list(spec.meshes),
                    **table.settings(cfg)}
        out = [{c.key: _json(getattr(r, c.attr)) for c in table.columns}
               for r in rows]
        return json.dumps({"command": spec.command, "defaults": defaults,
                           "rows": out, **extra},
                          sort_keys=True, separators=(",", ":")) + "\n"
    lines = _provenance_lines(spec, table)
    lines += (_csv if spec.fmt == "csv" else _pretty)(table, rows)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    spec = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report = run(spec)
        text = emit(report, spec)
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
