"""Command-line front end for single solves and convergence studies."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, manufactured
from ._vtk import write_unstructured_grid
from .assembly import assemble_system
from .mesh import _is_integer, build_cartesian_mesh
from .solver import SolverError, check_wellposedness, solve
from .spaces import build_dof_layout

__all__ = ["RunConfig", "ConfigError", "run", "main", "console_main"]

ALLOWED_LEVELS = (1, 2, 4, 8, 16, 32, 64)
DIAGNOSTIC_MAX_LEVEL = 4

_FACTORIES = {
    1: lambda mode, beta: manufactured.example1(beta=beta),
    2: lambda mode, beta: manufactured.example2(interface_mode=mode, beta=beta),
    3: lambda mode, beta: manufactured.example3(interface_mode=mode, beta=beta),
    4: lambda mode, beta: manufactured.example4(interface_mode=mode, beta=beta),
}


class ConfigError(ValueError):
    """An option combination violates a run invariant."""


@dataclass
class RunConfig:
    example: int
    interface_mode: str = "derived"
    max_level: int = 32
    beta: float | None = None
    csv_path: str | None = None
    fields_dir: str | None = None
    diagnostics: bool = False

    def validate(self) -> None:
        if not _is_integer(self.example) or self.example not in (1, 2, 3, 4):
            raise ConfigError("example must be one of 1, 2, 3, 4")
        if not _is_integer(self.max_level) or self.max_level not in ALLOWED_LEVELS:
            raise ConfigError(f"max level must be one of {ALLOWED_LEVELS}")
        if self.interface_mode == "constant_projection" and self.example != 4:
            raise ConfigError("constant_projection interface mode is valid only with example 4")
        if self.interface_mode == "paper_literal" and self.example not in (2, 3):
            raise ConfigError("paper_literal interface mode is valid only with examples 2 and 3")
        if self.interface_mode not in ("derived", "paper_literal", "constant_projection"):
            raise ConfigError(f"unknown interface mode {self.interface_mode!r}")
        if self.beta is not None and not (math.isfinite(self.beta) and self.beta > 0):
            raise ConfigError("beta override must be positive and finite")


def _dump_fields(fields_dir, level, m, layout, sol):
    used, cells1 = np.unique(m.triangles[layout.p1_triangles].ravel(), return_inverse=True)
    write_unstructured_grid(
        os.path.join(fields_dir, f"region1_{level}.vtk"),
        m.vertices[used],
        cells1.reshape(-1, 3),
        title=f"region 1 fields, level {level}",
        cell_scalars={"p1": sol.p1},
        cell_vectors={"u1": analysis.u1_cell_values(sol, m)},
    )
    write_unstructured_grid(
        os.path.join(fields_dir, f"region2_{level}.vtk"),
        m.vertices[layout.p2_vertices],
        layout.vert_to_p2[m.triangles[layout.u2_triangles]],
        title=f"region 2 fields, level {level}",
        point_scalars={"p2": sol.p2},
        cell_vectors={"u2": sol.u2},
    )


def _print_row(label, values, spec):
    """One table row: the label and each value right-aligned in 10 columns."""
    print("  ".join([f"{label:>10}"] + [f"{v:{spec}}" for v in values]))


def _print_table(report):
    _print_row("h_inv", [f"e_{c}" for c in analysis.COLUMNS], ">10")
    for rep, rates in zip(report.reports, report.rates):
        _print_row(rep.level_inv, rep.errors().values(), ">10.4e")
        if rates is not None:
            _print_row("rate", rates.values(), ">10.4f")


def _print_relative_table(report):
    print("relative errors (percent):")
    _print_row("h_inv", [f"rel_{c}" for c in analysis.COLUMNS], ">10")
    for rep in report.reports:
        _print_row(rep.level_inv, rep.relative().values(), ">10.4f")


def run(config: RunConfig) -> int:
    """Execute one study; returns a process exit status."""
    config.validate()
    beta = 1.0 if config.beta is None else config.beta
    case = _FACTORIES[config.example](config.interface_mode, beta)
    levels = [k for k in ALLOWED_LEVELS if k <= config.max_level]

    if config.fields_dir:
        os.makedirs(config.fields_dir, exist_ok=True)
        on_level = lambda level, m, layout, sol: _dump_fields(
            config.fields_dir, level, m, layout, sol
        )
    else:
        on_level = None

    try:
        report = analysis.convergence_study(case, levels, on_level=on_level)
    except SolverError as err:
        print(f"solver failure at level {err.level}: {err}", file=sys.stderr)
        return 1

    _print_table(report)
    if config.interface_mode == "constant_projection":
        _print_relative_table(report)
    if config.csv_path:
        analysis.write_csv(report, config.csv_path)

    if config.diagnostics:
        for k in levels:
            if k > DIAGNOSTIC_MAX_LEVEL:
                continue
            m = build_cartesian_mesh(k)
            layout = build_dof_layout(m)
            system = assemble_system(m, layout, case)
            diag = check_wellposedness(system)
            print(
                f"diagnostics level {k}: inf_sup={diag.inf_sup:.6e} "
                f"kernel_coercivity={diag.kernel_coercivity:.6e} "
                f"c_definiteness={diag.c_definiteness:.6e}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodarcy",
        description="Convergence studies for the two-region mixed Darcy solver.",
    )
    parser.add_argument("--example", type=int, required=True, help="case number, 1..4")
    parser.add_argument(
        "--interface-mode",
        default="derived",
        choices=("derived", "paper_literal", "constant_projection"),
        help="interface data variant (default: derived oracle)",
    )
    parser.add_argument("--max-level", type=int, default=32,
                        help="finest inverse mesh size, a power of 2 (default 32)")
    parser.add_argument("--beta", type=float, default=None,
                        help="override the interface storage coefficient")
    parser.add_argument("--csv", dest="csv_path", default=None,
                        help="write the convergence table to this CSV file")
    parser.add_argument("--fields", dest="fields_dir", default=None,
                        help="write per-level VTK field dumps into this directory")
    parser.add_argument("--diagnostics", action="store_true",
                        help="print well-posedness diagnostics at coarse levels")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(RunConfig(**vars(args)))
    except (ConfigError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
