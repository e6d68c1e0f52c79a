"""One benchmark process: set up a workload, time passes over it, check every output.

``perfbench/run.py`` starts this script in fresh processes; run that instead.
It imports ``twodarcy`` from ``src/`` of the checkout it lives in, builds the
workload's inputs and one level-1 warm-up solve (the set-up), then repeats
the workload's timed region until ``--seconds`` would be exceeded.  Checks
run between passes, outside the timed region.  The last stdout line is one
JSON object.

Each pass is split into the same operations every time (a pipeline stage,
one problem, a stretch of the study up to its next solve, error-norm or
VTK call).  In untraced
passes a fixed job that does not use twodarcy (``SpeedProbe``) is timed
before the first operation and after each one, outside the operations'
times.  An operation's normalised time is its wall time times
``REFERENCE_PROBE_S`` over the mean of the probe samples next to it: its
wall time at a fixed host speed.  ``norm_wall_s`` is the sum over
operations of each one's median normalised time over the passes, so a slow
spell that hits one operation in one pass moves that operation's median
only.  ``setup_s`` is normalised by probe samples taken right after the
set-up.  The raw wall times are reported next to them.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap the package's public functions (see ``tracing.py``) and give per-layer
self times, call counts and sizes.
"""

import time

SETUP_START = time.perf_counter()  # before numpy, scipy and twodarcy are imported

import argparse
import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
OUTPUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    import twodarcy
    from twodarcy import analysis, assembly, cli, manufactured, mesh, solver, spaces
except ImportError as err:
    sys.exit(f"perfbench: cannot import twodarcy from {ROOT / 'src'}: {err}")
if Path(twodarcy.__file__).resolve().parent != ROOT / "src" / "twodarcy":
    sys.exit(f"perfbench: imported twodarcy from {twodarcy.__file__}, not this checkout")

from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402  (sibling module)

# Levels per scale.  ``tiny`` exists for the smoke test only.
SCALES = {
    "full": {"study_max_level": 64, "fine_level": 96, "sweep_levels": (4, 8, 16, 32)},
    "tiny": {"study_max_level": 4, "fine_level": 8, "sweep_levels": (2, 4)},
}

# Relative tolerance of the centroid-error checks against stored references.
# The value is a discretization error; LU round-off moves it far less.
CENTROID_RTOL = 1e-6

# The per-layer self times of a traced pass must cover its wall time to
# within this share; the rest is the benchmark's own loop.
TRACE_COVERAGE_TOL = 0.02

# A probe sample is the median of PROBE_REPS timings of the probe job.  An
# operation is normalised by the mean of the PROBE_WINDOW samples on each
# side of it.  REFERENCE_PROBE_S is about one job on the machine described
# in NOTES.md; it only fixes the scale of the normalised times.
PROBE_REPS = 3
PROBE_WINDOW = 2
REFERENCE_PROBE_S = 0.002
SETUP_PROBE_SAMPLES = 5

SWEEP_DRAWS = 8
LOG_COEFF_RANGE = (math.log(0.1), math.log(10.0))


def report_failure(workload, err):
    print(f"perfbench {workload}: {type(err).__name__}: {err}", file=sys.stderr)
    if err.__traceback__ is not None and not isinstance(err, solver.SolverError):
        traceback.print_exception(err, file=sys.stderr)


class SpeedProbe:
    """A fixed job, independent of twodarcy, timed to track the host's speed.

    The shared host's speed flips between a fast and a slow state, about
    1.5 times apart, within seconds, and the share of time in each drifts
    over minutes; every part of a run drifts with it (see NOTES.md).  The job mixes
    what the workloads do: a small sparse LU solve, a Python dict loop and
    numpy arithmetic into preallocated arrays.
    """

    def __init__(self):
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(24, 24))
        self.matrix = (sp.kron(t, sp.eye(24)) + sp.kron(sp.eye(24), t)).tocsc()
        self.rhs = np.ones(self.matrix.shape[0])
        self.x = np.linspace(0.0, 1.0, 20_000)
        self.out = (np.empty_like(self.x), np.empty_like(self.x))
        self.sample()  # the first run pays one-off allocations

    def job(self):
        spla.splu(self.matrix).solve(self.rhs)
        counts = {}
        for i in range(4_000):
            key = (i * 7919) % 4099
            counts[key] = counts.get(key, 0) + 1
        a, b = self.out
        np.sin(self.x, out=a)
        np.exp(self.x, out=b)
        np.multiply(a, b, out=a)
        return float(a.sum())

    def sample(self):
        times = []
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            self.job()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Laps:
    """Wall time of each operation of one pass, with probe samples around them.

    ``lap()`` ends the current operation, samples the probe (if any) and
    starts the next operation, so probe time is in no operation's time.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.times = []
        self.probes = []
        self._sample()

    def _sample(self):
        if self.probe is not None:
            self.probes.append(self.probe.sample())
        self._last = time.perf_counter()

    def lap(self):
        self.times.append(time.perf_counter() - self._last)
        self._sample()

    def normalised(self):
        """Each operation's time at the host speed where the probe job takes REFERENCE_PROBE_S.

        The host's speed flips within a second (see NOTES.md), so one sample
        on each side of a long operation is too few.
        """
        return [t * REFERENCE_PROBE_S
                / statistics.fmean(self.probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW])
                for i, t in enumerate(self.times)]


@contextlib.contextmanager
def lap_before(laps, sites):
    """Lap ``laps`` before every call of the (module, function name) ``sites``.

    This splits one long call, such as ``cli.main``, into operations.
    """
    originals = [(module, name, getattr(module, name)) for module, name in sites]

    def wrap(function):
        @functools.wraps(function)
        def lapped(*args, **kwargs):
            laps.lap()
            return function(*args, **kwargs)
        return lapped

    for module, name, function in originals:
        setattr(module, name, wrap(function))
    try:
        yield
    finally:
        for module, name, function in reversed(originals):
            setattr(module, name, function)


def warm_up(case):
    m = mesh.build_cartesian_mesh(1)
    layout = spaces.build_dof_layout(m)
    solver.solve(assembly.assemble_system(m, layout, case))


class Study:
    """``twodarcy --example 1 --max-level K --csv P --fields D``, in process.

    The operations are the stretches between the solves, the error norms and
    the VTK writes of the study.
    """

    name = "study"
    lap_sites = (("analysis", "solve"), ("analysis", "error_norms"),
                 ("cli", "write_unstructured_grid"))

    def __init__(self, scale, seed, workdir):
        max_level = scale["study_max_level"]
        self.levels = [k for k in cli.ALLOWED_LEVELS if k <= max_level]
        self.csv = workdir / "study.csv"
        self.fields = workdir / "fields"
        self.argv = ["--example", "1", "--max-level", str(max_level),
                     "--csv", str(self.csv), "--fields", str(self.fields)]
        self.reference = (REFERENCE / f"study_example1_{max_level}.csv").read_bytes()
        self.warm_up_case = manufactured.example1()

    def prepare(self):
        self.csv.unlink(missing_ok=True)
        shutil.rmtree(self.fields, ignore_errors=True)

    def run(self, laps):
        sites = [(getattr(twodarcy, module), name) for module, name in self.lap_sites]
        with contextlib.redirect_stdout(io.StringIO()), lap_before(laps, sites):
            try:
                return cli.main(self.argv)
            except Exception as err:  # a crash fails every solve of the pass
                return err
            finally:
                laps.lap()

    def check(self, status):
        """One operation per level: its CSV row and both VTK dumps must be right."""
        if status != 0:
            report_failure(self.name, status if isinstance(status, Exception)
                           else RuntimeError(f"cli exit status {status}"))
            return len(self.levels), len(self.levels)
        rows = self.csv.read_bytes().split(b"\n") if self.csv.exists() else []
        expected = self.reference.split(b"\n")
        if rows[:1] != expected[:1] or len(rows) != len(expected):
            report_failure(self.name, RuntimeError("CSV header or row count differs"))
            return len(self.levels), len(self.levels)
        failed = 0
        for level, row, ref in zip(self.levels, rows[1:], expected[1:]):
            dumps = all((self.fields / f"region{r}_{level}.vtk").is_file() for r in (1, 2))
            if row != ref or not dumps:
                report_failure(self.name, RuntimeError(f"level {level} output differs"))
                failed += 1
        return len(self.levels), failed


class FineSolve:
    """Example 4 (derived) at one fine level: mesh, layout, assembly, LU solve."""

    name = "fine_solve"

    def __init__(self, scale, seed, workdir):
        self.level = scale["fine_level"]
        self.case = manufactured.example4()
        self.warm_up_case = self.case
        refs = json.loads((REFERENCE / "fine_solve.json").read_text())
        self.reference = refs["centroid_p1_error"][str(self.level)]

    def prepare(self):
        pass

    def run(self, laps):
        try:
            m = mesh.build_cartesian_mesh(self.level)
            laps.lap()
            layout = spaces.build_dof_layout(m)
            laps.lap()
            system = assembly.assemble_system(m, layout, self.case)
            laps.lap()
            sol = solver.solve(system)
            laps.lap()
            return m, sol
        except Exception as err:
            return err

    def check(self, out):
        if isinstance(out, Exception):
            report_failure(self.name, out)
            return 1, 1
        m, sol = out
        error = centroid_p1_error(self.case, m, sol.p1)
        if not (sol.residual <= solver.RESIDUAL_TOL
                and math.isclose(error, self.reference, rel_tol=CENTROID_RTOL)):
            report_failure(self.name, RuntimeError(
                f"residual {sol.residual:.3e}, centroid error {error!r} "
                f"against reference {self.reference!r}"))
            return 1, 1
        return 1, 0


def centroid_p1_error(case, m, p1):
    """Area-weighted l2 distance of the cell pressure from p at the centroids."""
    tris = np.flatnonzero(m.tri_region == 1)
    c = m.centroids[tris]
    diff = p1 - case.p_at(c[:, 0], c[:, 1])
    return math.sqrt(float(m.areas[tris] @ diff**2))


def sweep_cases(seed):
    """The seven fixed case variants, then random coefficient draws.

    Draws alternate between examples 1 and 4; ``a1``, ``a2`` and ``beta``
    are log-uniform in [0.1, 10] and the interface data is re-derived from
    the exact solution, so every draw is a consistent problem.
    """
    cases = [
        manufactured.example1(),
        manufactured.example2("derived"),
        manufactured.example2("paper_literal"),
        manufactured.example3("derived"),
        manufactured.example3("paper_literal"),
        manufactured.example4("derived"),
        manufactured.example4("constant_projection"),
    ]
    rng = np.random.default_rng(seed)
    for i in range(SWEEP_DRAWS):
        base = manufactured.example1() if i % 2 == 0 else manufactured.example4()
        a1, a2, beta = (float(v) for v in np.exp(rng.uniform(*LOG_COEFF_RANGE, size=3)))
        case = dataclasses.replace(base, name=f"{base.name}_draw{i}", a1=a1, a2=a2, beta=beta)
        f_stress, f_n = manufactured.derive_interface_data(case)
        cases.append(dataclasses.replace(case, f_stress=f_stress, f_n=f_n))
    return cases


class CaseSweep:
    """Every case at every sweep level: mesh, layout, assembly, solve, interface defect."""

    name = "case_sweep"

    def __init__(self, scale, seed, workdir):
        cases = sweep_cases(seed)
        self.problems = [(level, case) for level in scale["sweep_levels"] for case in cases]
        self.warm_up_case = cases[0]
        refs = json.loads((REFERENCE / "case_sweep.json").read_text())
        self.reference = refs["centroid_p1_error"]

    def prepare(self):
        pass

    def run(self, laps):
        out = []
        for level, case in self.problems:
            try:
                m = mesh.build_cartesian_mesh(level)
                layout = spaces.build_dof_layout(m)
                sol = solver.solve(assembly.assemble_system(m, layout, case))
                out.append((sol.residual, analysis.interface_flux_residuals(sol, case, m), sol.p1))
            except Exception as err:
                out.append(err)
            laps.lap()
        return out

    def check(self, out):
        """Residual guard and finite defects everywhere; fixed variants also match references."""
        failed = 0
        meshes = {}
        for (level, case), item in zip(self.problems, out):
            if isinstance(item, Exception):
                report_failure(self.name, item)
                failed += 1
                continue
            residual, defects, p1 = item
            ok = residual <= solver.RESIDUAL_TOL and bool(np.all(np.isfinite(defects)))
            reference = self.reference.get(f"{case.name}:{case.interface_mode}", {}).get(str(level))
            if ok and reference is not None:
                if level not in meshes:
                    meshes[level] = mesh.build_cartesian_mesh(level)
                error = centroid_p1_error(case, meshes[level], p1)
                ok = math.isclose(error, reference, rel_tol=CENTROID_RTOL)
            if not ok:
                report_failure(self.name, RuntimeError(
                    f"{case.name} ({case.interface_mode}) at level {level}: residual "
                    f"{residual:.3e}, defects finite {bool(np.all(np.isfinite(defects)))}, "
                    f"or centroid error off its reference"))
                failed += 1
        return len(out), failed


WORKLOADS = {w.name: w for w in (Study, FineSolve, CaseSweep)}


def src_lines():
    """Non-blank, non-comment lines of the package source."""
    count = 0
    for path in sorted((ROOT / "src" / "twodarcy").rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            count += bool(stripped) and not stripped.startswith("#")
    return count


def measure(workload, seconds, tracer, probe):
    """Repeat the timed region until another pass would overrun ``seconds``.

    Returns the pass wall times split into untraced and traced ones, the
    laps of the untraced passes (probed with ``probe``), the per-pass layer
    metrics of the traced ones, and the operation counts.  An untraced
    pass's wall time is the sum of its laps, without the probe's time.
    With a tracer, passes alternate untraced/traced, starting untraced.
    """
    walls = {False: [], True: []}
    laps_per_pass = []
    layers = []
    attempted = failed = 0
    start = time.perf_counter()
    iterations = []  # each pass with its probes and checks
    while True:
        iteration_start = time.perf_counter()
        traced = tracer is not None and len(walls[True]) < len(walls[False])
        workload.prepare()
        if traced:
            run = len(walls[True])
            tracer.install(run)
        laps = Laps(None if traced else probe)
        t0 = time.perf_counter()
        try:
            out = workload.run(laps)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if not traced:
            wall = sum(laps.times)
            laps_per_pass.append(laps)
        walls[traced].append(wall)
        ops, bad = workload.check(out)
        attempted += ops
        failed += bad
        del out
        if traced:
            metrics = tracer.layer_metrics(run)
            covered = sum(metrics[name] for name in SELF_TIME_METRICS)
            if abs(covered - wall) > TRACE_COVERAGE_TOL * wall:
                raise RuntimeError(
                    f"layer self times cover {covered:.4f} s of a {wall:.4f} s traced pass")
            layers.append(metrics)
        now = time.perf_counter()
        iterations.append(now - iteration_start)
        elapsed = now - start
        typical = statistics.median(iterations)
        enough = tracer is None or walls[True]
        if enough and elapsed + typical > seconds:
            return walls, laps_per_pass, layers, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args(argv)

    workdir = OUTPUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](SCALES[args.scale], args.seed, workdir)
        warm_up(workload.warm_up_case)
        setup_raw_s = time.perf_counter() - SETUP_START
        probe = SpeedProbe()
        setup_probe_s = statistics.fmean(probe.sample() for _ in range(SETUP_PROBE_SAMPLES))
        result = {"setup_s": setup_raw_s * REFERENCE_PROBE_S / setup_probe_s,
                  "setup_raw_s": setup_raw_s}
        if not args.setup_only:
            modules = {"cli": cli, "analysis": analysis, "assembly": assembly,
                       "mesh": mesh, "solver": solver, "spaces": spaces}
            tracer = Tracer(modules) if args.trace else None
            walls, laps_per_pass, layers, attempted, failed = measure(
                workload, args.seconds, tracer, probe)
            # A pass that failed part-way has fewer laps; zip keeps the
            # operations every pass reached (such a run is already incorrect).
            result.update(
                attempted=attempted,
                failed=failed,
                wall_s=sum(statistics.median(op)
                           for op in zip(*(laps.times for laps in laps_per_pass))),
                norm_wall_s=sum(statistics.median(op)
                                for op in zip(*(laps.normalised() for laps in laps_per_pass))),
                probe_s=statistics.median(p for laps in laps_per_pass for p in laps.probes),
                operations=min(len(laps.times) for laps in laps_per_pass),
                pass_walls=walls[False],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
            if tracer is not None:
                per_layer = {name: statistics.median_low(m[name] for m in layers)
                             for name in layers[0]}
                per_layer["package.src_lines"] = src_lines()
                per_layer["trace.overhead_s"] = (statistics.median(walls[True])
                                                 - statistics.median(walls[False]))
                result.update(per_layer=per_layer, traced_wall_s=statistics.median(walls[True]),
                              traced_passes=len(walls[True]))
                tracer.write(OUTPUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
