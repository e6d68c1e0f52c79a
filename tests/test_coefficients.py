"""Properties of the region-constant coefficients over random draws.

``(a1, a2, beta)`` are drawn log-uniform in [1e-3, 1e3].  The examples are
derandomized, so every run checks the same draws.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twodarcy.assembly import (
    AdmissibilityError,
    CoefficientSet,
    assemble_A,
    assemble_C,
    p1_stiffness_omega2,
    rt0_local_mass,
)
from twodarcy.mesh import build_cartesian_mesh
from twodarcy.spaces import build_dof_layout

from oracles import flux_scatter

ULP = np.finfo(float).eps

log_uniform = st.floats(min_value=-3.0, max_value=3.0).map(lambda t: 10.0**t)
coefficients = st.builds(CoefficientSet, log_uniform, log_uniform, log_uniform)
derandomized = settings(derandomize=True, database=None, max_examples=50, deadline=None)


@functools.lru_cache(maxsize=None)
def _level4():
    m = build_cartesian_mesh(4)
    layout = build_dof_layout(m)
    unit_a = assemble_A(m, layout, CoefficientSet(1.0, 1.0, 1.0), rt0_local_mass(m, layout.p1_triangles))
    k = p1_stiffness_omega2(m, layout)
    return m, layout, {
        "flux": flux_scatter(m, layout, rt0_local_mass(m, layout.p1_triangles)),
        "beta": unit_a[layout.n_u1:, layout.n_u1:],
        "stiffness": k,
        "potential": k[layout.phi_to_p2][:, layout.phi_to_p2],
    }


def _assert_scaled(block, scale, unit):
    assert block.nnz == unit.nnz
    assert abs(block - scale * unit).max() <= 4 * ULP * abs(block).max()


@derandomized
@given(coefficients)
def test_validate_accepts_positive_finite_draws(coeffs):
    coeffs.validate()


@derandomized
@given(coefficients)
def test_validate_rejects_any_bad_entry(coeffs):
    for field in ("a1", "a2", "beta"):
        for bad in (0.0, -getattr(coeffs, field), np.nan, np.inf):
            with pytest.raises(AdmissibilityError, match="positive and finite"):
                dataclasses.replace(coeffs, **{field: bad}).validate()


@derandomized
@given(coefficients)
def test_blocks_are_coefficients_times_unit_blocks(coeffs):
    m, layout, unit = _level4()
    n_u1, n_phi = layout.n_u1, layout.n_phi
    a = assemble_A(m, layout, coeffs, rt0_local_mass(m, layout.p1_triangles, coeffs.a1))
    c = assemble_C(layout, coeffs, unit["stiffness"])
    _assert_scaled(a[:n_u1, :n_u1], coeffs.a1, unit["flux"])
    _assert_scaled(a[n_u1:, n_u1:], coeffs.beta, unit["beta"])
    _assert_scaled(c[:n_phi, :n_phi], coeffs.a2, unit["potential"])
