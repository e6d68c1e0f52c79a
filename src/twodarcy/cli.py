"""Command-line front end for single solves and convergence studies."""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import analysis, manufactured
from ._vtk import write_unstructured_grid
from .assembly import assemble_system
from .mesh import build_cartesian_mesh
from .solver import SolverError, check_wellposedness, solve  # noqa: F401
from .spaces import build_dof_layout

__all__ = ["main", "console_main"]

# perfbench/tracing.py wraps main, _dump_fields, write_unstructured_grid,
# build_cartesian_mesh, build_dof_layout, assemble_system and solve here by name.

ALLOWED_LEVELS = (1, 2, 4, 8, 16, 32, 64)
DIAGNOSTIC_MAX_LEVEL = 4


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


def _print_relative_table(report, case):
    norms = analysis.exact_norms(case)
    print("relative errors (percent):")
    _print_row("h_inv", [f"rel_{c}" for c in analysis.COLUMNS], ">10")
    for rep in report.reports:
        _print_row(rep.level_inv, rep.relative(norms).values(), ">10.4f")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodarcy",
        description="Convergence studies for the two-region mixed Darcy solver.",
    )
    parser.add_argument("--example", type=int, required=True,
                        choices=sorted(manufactured.EXAMPLES), help="manufactured case")
    parser.add_argument(
        "--interface-mode",
        default="derived",
        choices=("derived", "paper_literal", "constant_projection"),
        help="interface data variant (default: derived oracle)",
    )
    parser.add_argument("--max-level", type=int, default=32, choices=ALLOWED_LEVELS,
                        help="finest inverse mesh size (default 32)")
    parser.add_argument("--beta", type=float, default=1.0,
                        help="interface storage coefficient, positive and finite (default 1)")
    parser.add_argument("--csv", dest="csv_path", default=None,
                        help="write the convergence table to this CSV file")
    parser.add_argument("--fields", dest="fields_dir", default=None,
                        help="write per-level VTK field dumps into this directory")
    parser.add_argument("--diagnostics", action="store_true",
                        help="print well-posedness diagnostics at coarse levels")
    return parser


def main(argv=None) -> int:
    """Run one study; returns its exit status. Rejected options exit 2 before any work."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        case = manufactured.EXAMPLES[args.example](interface_mode=args.interface_mode,
                                                   beta=args.beta)
        case.coefficient_set().validate()
    except ValueError as err:
        parser.error(str(err))
    for option, path in (("--csv", args.csv_path), ("--fields", args.fields_dir)):
        if path == "":
            parser.error(f"{option}: the path is empty")
    if args.csv_path and (os.path.isdir(args.csv_path)
                          or not os.path.isdir(os.path.dirname(os.path.abspath(args.csv_path)))):
        parser.error(f"--csv: cannot write a file at {args.csv_path}")
    if args.fields_dir:
        try:
            os.makedirs(args.fields_dir, exist_ok=True)
        except OSError as err:
            parser.error(f"--fields: cannot create directory {args.fields_dir}: {err.strerror}")
    levels = [k for k in ALLOWED_LEVELS if k <= args.max_level]

    on_level = functools.partial(_dump_fields, args.fields_dir) if args.fields_dir else None
    try:
        report = analysis.convergence_study(case, levels, on_level=on_level)
    except SolverError as err:
        print(f"solver failure at level {err.level}: {err}", file=sys.stderr)
        return 1

    _print_table(report)
    if args.interface_mode == "constant_projection":
        _print_relative_table(report, case)
    if args.csv_path:
        analysis.write_csv(report, args.csv_path)

    if args.diagnostics:
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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
