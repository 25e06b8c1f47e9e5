"""Material constants, anisotropy operators, applied-field presets."""

import numpy as np
import pytest

from multimag import (
    GAMMA0,
    MU0,
    CubicContribution,
    NodalVectorField,
    NondimConstants,
    UniaxialContribution,
    compute_constants,
    make_applied_field,
    sample_applied_field,
)


def test_compute_constants_permalloy():
    # A = 1.3e-11 J/m, K = 5e2 J/m^3, Ms = 8e5 A/m at L = 5 nm, T = 1 ns
    c = compute_constants(A=1.3e-11, K=5e2, M_s=8e5, alpha=0.02, L_char=5e-9, T_physical=1e-9)
    np.testing.assert_allclose(c.c_exch, 2 * 1.3e-11 / (MU0 * 8e5**2 * 25e-18), rtol=1e-13)
    np.testing.assert_allclose(c.c_ani, 5e2 / (MU0 * 8e5), rtol=1e-13)
    np.testing.assert_allclose(c.t_final, GAMMA0 * 8e5 * 1e-9, rtol=1e-13)
    assert c.alpha == 0.02


def test_intrinsic_exchange_length_normalizes():
    A, Ms = 1.3e-11, 8e5
    L = np.sqrt(2 * A / (MU0 * Ms**2))
    c = compute_constants(A=A, K=1.0, M_s=Ms, alpha=1.0, L_char=L, T_physical=1.0)
    np.testing.assert_allclose(c.c_exch, 1.0, rtol=1e-12)


@pytest.mark.parametrize("bad", ["A", "K", "M_s", "alpha", "L_char", "T_physical"])
def test_compute_constants_rejects_nonpositive(bad):
    kwargs = dict(A=1e-11, K=1e2, M_s=1e5, alpha=0.1, L_char=1e-9, T_physical=1e-9)
    kwargs[bad] = 0.0
    with pytest.raises(ValueError, match=bad):
        compute_constants(**kwargs)


def test_nondim_constants_validate():
    with pytest.raises(ValueError, match="alpha"):
        NondimConstants(c_exch=1.0, c_ani=1.0, alpha=-1.0, t_final=1.0)


def test_uniaxial_on_axis(cube2):
    e = np.array([0.0, 0.0, 1.0])
    m = NodalVectorField(cube2, np.tile(e, (cube2.n_nodes, 1)))
    out = UniaxialContribution(axis=e).evaluate(m)
    np.testing.assert_allclose(out.values, -m.values, atol=1e-15)


def test_uniaxial_transverse_vanishes(cube2):
    m = NodalVectorField(cube2, np.tile([1.0, 0.0, 0.0], (cube2.n_nodes, 1)))
    out = UniaxialContribution(axis=np.array([0.0, 0.0, 1.0])).evaluate(m)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-15)


def test_uniaxial_formula(cube2):
    rng = np.random.default_rng(5)
    m = NodalVectorField(cube2, rng.normal(size=(cube2.n_nodes, 3)))
    e = np.array([1.0, 2.0, 2.0]) / 3.0
    out = UniaxialContribution(axis=e).evaluate(m)
    expect = -(m.values @ e)[:, None] * e
    np.testing.assert_allclose(out.values, expect, rtol=1e-14)


def test_uniaxial_requires_unit_axis():
    for axis in ([0.0, 0.0, 2.0], [1.0, 1.0, 0.0], [np.nan, 0.0, 1.0], [0.0, 0.0, np.inf],
                 [0.0, 1.0]):
        with pytest.raises(ValueError, match="unit 3-vector"):
            UniaxialContribution(axis=np.array(axis))


def _cubic_density(m, K1, K2):
    x1, x2, x3 = m[:, 0], m[:, 1], m[:, 2]
    return K1 * (x1**2 * x2**2 + x2**2 * x3**2) + K2 * x1**2 * x2**2 * x3**2


def test_cubic_gradient_matches_density_derivative(cube2):
    # central differences of the density as the independent oracle
    rng = np.random.default_rng(11)
    m = rng.normal(size=(cube2.n_nodes, 3))
    K1, K2 = 1.3, 0.4
    grad = CubicContribution(K1=K1, K2=K2).evaluate(NodalVectorField(cube2, m)).values
    h = 1e-6
    for comp in range(3):
        up, dn = m.copy(), m.copy()
        up[:, comp] += h
        dn[:, comp] -= h
        fd = (_cubic_density(up, K1, K2) - _cubic_density(dn, K1, K2)) / (2 * h)
        np.testing.assert_allclose(grad[:, comp], fd, atol=5e-9)


def test_cubic_density_pair_asymmetry(cube2):
    # the density couples (1,2) and (2,3) but not (1,3)
    n = cube2.n_nodes
    m13 = NodalVectorField(cube2, np.tile([1.0, 0.0, 1.0] / np.sqrt(2.0), (n, 1)))
    m12 = NodalVectorField(cube2, np.tile([1.0, 1.0, 0.0] / np.sqrt(2.0), (n, 1)))
    cub = CubicContribution(K1=1.0, K2=0.0)
    np.testing.assert_allclose(cub.evaluate(m13).values, 0.0, atol=1e-15)
    assert np.abs(cub.evaluate(m12).values).max() > 0.4


def test_cubic_rejects_negative_constants():
    for K1, K2 in ((-1.0, 0.0), (0.0, -1.0), (np.nan, 0.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="nonnegative"):
            CubicContribution(K1=K1, K2=K2)


def test_contribution_scaling(cube2):
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(cube2.n_nodes, 3))
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    m = NodalVectorField(cube2, vals)
    e = np.array([0.0, 1.0, 0.0])
    uni = UniaxialContribution(axis=e, scale=2.5)
    np.testing.assert_allclose(
        uni.evaluate(m).values, 2.5 * UniaxialContribution(axis=e).evaluate(m).values, rtol=1e-14
    )
    cub = CubicContribution(K1=1.0, K2=0.5, scale=0.3)
    np.testing.assert_allclose(
        cub.evaluate(m).values, 0.3 * CubicContribution(K1=1.0, K2=0.5).evaluate(m).values,
        rtol=1e-14,
    )
    assert uni.linear_self_adjoint and not cub.linear_self_adjoint


def test_energy_density_hooks(cube2):
    n = cube2.n_nodes
    m = NodalVectorField(cube2, np.tile([1.0, 1.0, 1.0] / np.sqrt(3.0), (n, 1)))
    cub = CubicContribution(K1=9.0, K2=27.0, scale=1.0)
    np.testing.assert_allclose(cub.energy_density(m), 9.0 * (2.0 / 9.0) + 1.0, rtol=1e-13)


def test_boundedness_ratio(cube2):
    rng = np.random.default_rng(9)
    vals = rng.normal(size=(cube2.n_nodes, 3))
    vals /= np.linalg.norm(vals, axis=1, keepdims=True)
    m = NodalVectorField(cube2, vals)
    uni = UniaxialContribution(axis=np.array([0.0, 0.0, 1.0]), scale=1.0)
    out = uni.evaluate(m)
    ratio = uni.boundedness_ratio(m, out)
    # |pi(m)| <= |m| pointwise for unit scale, so the ratio is below |Omega|^(1/2)
    assert 0.0 < ratio <= 1.0


def test_sample_applied_field_copies_the_vector():
    vector = np.array([0.0, 1.0, 2.0])
    f = sample_applied_field(lambda t: vector, 0.0)
    assert f.shape == (3,) and f.dtype == np.float64
    np.testing.assert_array_equal(f, vector)
    f[0] = 5.0  # a contribution that writes to zeta leaves the preset's vector alone
    assert vector[0] == 0.0
    np.testing.assert_array_equal(sample_applied_field(lambda t: [0, 1, 2], 0.0), vector)


def test_applied_field_presets(cube2):
    const = make_applied_field("constant", [0.0, 0.0, 0.3])
    np.testing.assert_allclose(const(7.0), [0.0, 0.0, 0.3])
    sine = make_applied_field("sinusoidal", [1.0, 0.0, 0.0], omega=np.pi / 2.0)
    np.testing.assert_allclose(sine(1.0), [1.0, 0.0, 0.0], rtol=1e-12)
    np.testing.assert_allclose(sine(0.0), [0.0, 0.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError, match="kind must be constant or sinusoidal, got 'step'"):
        make_applied_field("step", [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="3-vector"):
        make_applied_field("constant", [1.0, 0.0])
