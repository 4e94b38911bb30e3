import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlp_sharp.hgroup import (
    GroupParams,
    HPoint,
    dilate,
    dilate_arrays,
    group_inv,
    group_mul,
    hdist,
    hnorm,
    hnorm_arrays,
    identity,
    mul_arrays,
)

coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, width=64)


def hpoints(n: int):
    return st.lists(coord, min_size=2 * n + 1, max_size=2 * n + 1).map(
        lambda c: HPoint(np.array(c))
    )


def test_group_law_example():
    x = HPoint(np.array([1.0, 0.0, 0.0]))
    y = HPoint(np.array([0.0, 1.0, 0.0]))
    assert group_mul(x, y).coords.tolist() == [1.0, 1.0, -2.0]
    assert group_mul(y, x).coords.tolist() == [1.0, 1.0, 2.0]


def test_identity_and_inverse_are_exact():
    x = HPoint(np.array([0.3, -1.2, 0.7]))
    e = identity(1)
    assert group_mul(x, e).coords.tolist() == x.coords.tolist()
    assert group_mul(e, x).coords.tolist() == x.coords.tolist()
    assert group_mul(x, group_inv(x)).coords.tolist() == [0.0, 0.0, 0.0]


@given(hpoints(1), hpoints(1), hpoints(1))
@settings(max_examples=200, deadline=None)
def test_associativity(x, y, z):
    lhs = group_mul(group_mul(x, y), z).coords
    rhs = group_mul(x, group_mul(y, z)).coords
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@given(hpoints(2), st.floats(min_value=0.05, max_value=20.0))
@example(HPoint(np.array([0.0, 0.0, 0.0, 0.0, 2.225073858507e-311])), 0.25)
@settings(max_examples=200, deadline=None)
def test_norm_homogeneity(x, r):
    # A subnormal vertical coordinate loses bits when dilate rounds (t*r)*r
    # twice, by at most (r + 1) ulp(0) / 2, and the norm's square root turns
    # that into an absolute error of at most sqrt((r + 1) ulp(0)).
    floor = math.sqrt((r + 1.0) * math.ulp(0.0))
    assert hnorm(dilate(r, x)) == pytest.approx(r * hnorm(x), rel=1e-12, abs=floor)


@pytest.mark.parametrize(
    "coords, r",
    [
        ((0.0, 0.0, 0.0, 1.0715005625425723e-79, 0.0), 2.0),
        ((0.0, 0.0, 0.0, 0.0, 9.921763710272477e-157), 0.5),
        ((1e-170, 0.0, 0.0), 2.0),
        ((1e100, 0.0, 1e200), 0.1),
    ],
)
def test_norm_homogeneity_at_extreme_scales(coords, r):
    # Fourth powers of these coordinates are subnormal or overflow.
    x = HPoint(np.array(coords))
    assert hnorm(dilate(r, x)) == pytest.approx(r * hnorm(x), rel=1e-12, abs=1e-300)
    assert hnorm(x) > 0.0 and math.isfinite(hnorm(x))


@given(hpoints(1), hpoints(1), st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_dilation_is_a_morphism(x, y, r):
    lhs = dilate(r, group_mul(x, y)).coords
    rhs = group_mul(dilate(r, x), dilate(r, y)).coords
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def _homogeneous_scale(*points):
    """Largest max(|horizontal|, sqrt|vertical|) over the points."""
    return max(max(np.max(np.abs(p.coords[:-1])), math.sqrt(abs(p.coords[-1]))) for p in points)


@given(hpoints(1), hpoints(1), hpoints(1))
@example(
    HPoint(np.array([1.0, 0.0, 1.0])), HPoint(np.zeros(3)), HPoint(np.array([0.0, 2.23e-9, 0.0]))
)
@example(
    HPoint(np.array([0.0, 1.0, 0.0])), HPoint(np.array([1.0, 0.0, 0.0])), HPoint(np.array([1.0, 1e-16, 0.0]))
)
@example(  # a near-worst draw of an adversarial search: 1.56 sqrt(eps) S
    HPoint(np.array([3.0, -3.0, 0.0])),
    HPoint(np.array([0.0, 0.0, 3.893])),
    HPoint(np.array([3.88e-15, 4.22e-15, 3.893])),
)
@settings(max_examples=200, deadline=None)
def test_distance_left_invariance(z, x, y):
    # The gauge distance is Holder-1/2 in the vertical coordinate: rounding
    # the group law at homogeneous scale S moves the vertical coordinate by
    # ~eps S^2 and so the distance by up to ~sqrt(eps) S, whatever the float
    # group law.  The absolute floor is twice that bound.
    zx, zy = group_mul(z, x), group_mul(z, y)
    floor = 2.0 * math.sqrt(np.finfo(float).eps) * _homogeneous_scale(z, x, y, zx, zy)
    assert hdist(zx, zy) == pytest.approx(hdist(x, y), rel=1e-9, abs=floor)


@given(hpoints(1), hpoints(1))
@settings(max_examples=300, deadline=None)
def test_triangle_inequality(x, y):
    assert hnorm(group_mul(x, y)) <= hnorm(x) + hnorm(y) + 1e-12


def test_gauge_norm_closed_form():
    x = HPoint(np.array([3.0, 4.0, 7.0]))
    assert hnorm(x) == pytest.approx((625.0 + 49.0) ** 0.25, rel=1e-15)


def test_Q_and_ball_volume_values():
    assert GroupParams(n=1).Q == 4
    assert GroupParams(n=2).Q == 6
    assert GroupParams(n=1).Omega_Q == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
    assert GroupParams(n=2).Omega_Q == pytest.approx(2.0 * math.pi**2 / 3.0, rel=1e-14)
    for n in (1, 2, 3, 4):
        gp = GroupParams(n=n)
        closed = math.pi ** (n + 1) / (
            2.0 ** (n - 1) * (n + 1) * math.gamma((n + 1) / 2.0) ** 2
        )
        assert gp.Omega_Q == pytest.approx(closed, rel=1e-13)
        assert gp.omega_Q == pytest.approx(gp.Q * gp.Omega_Q, rel=1e-15)


def test_array_kernels_match_scalar_ops():
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(50, 5))
    Y = rng.uniform(-2, 2, size=(50, 5))
    XY = mul_arrays(X, Y, 2)
    for i in range(0, 50, 7):
        via_points = group_mul(HPoint(X[i]), HPoint(Y[i])).coords
        assert np.array_equal(XY[i], via_points)
    # batch reductions may reassociate the horizontal sum, so compare to ulps
    assert np.allclose(
        hnorm_arrays(X, 2),
        np.array([hnorm(HPoint(row)) for row in X]),
        rtol=1e-14,
        atol=0.0,
    )
    D = dilate_arrays(1.7, X, 2)
    for i in range(0, 50, 11):
        assert np.array_equal(D[i], dilate(1.7, HPoint(X[i])).coords)


def test_hpoint_validation():
    with pytest.raises(ValueError):
        HPoint(np.array([1.0, 2.0]))  # even length
    with pytest.raises(ValueError):
        HPoint(np.array([1.0, 2.0, np.inf]))
    with pytest.raises(ValueError):
        GroupParams(n=0)
    with pytest.raises(ValueError):
        dilate(0.0, identity(1))


# Literal copies of the kernels' earlier formulas: einsum on strided slices
# for the twist, strided writes into np.empty for the dilation.
def _einsum_mul_arrays(X, Y, n):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    out = X + Y
    xa, xb = X[..., :n], X[..., n : 2 * n]
    ya, yb = Y[..., :n], Y[..., n : 2 * n]
    twist = 2.0 * (np.einsum("...i,...i->...", ya, xb) - np.einsum("...i,...i->...", xa, yb))
    out[..., 2 * n] += twist
    return out


def _strided_dilate_arrays(r, X, n):
    X = np.asarray(X, dtype=float)
    r = np.asarray(r, dtype=float)
    out = np.empty(np.broadcast_shapes(X.shape, r.shape + (1,)), dtype=float)
    out[..., : 2 * n] = X[..., : 2 * n] * r[..., None]
    out[..., 2 * n] = X[..., 2 * n] * r * r
    return out


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _coords(rng, shape):
    # uniform coordinates with signed zeros mixed in: an all -0.0 twist sum
    # must read +0.0, as einsum's does
    X = rng.uniform(-3.0, 3.0, size=shape)
    return np.where(rng.random(shape) < 0.3, rng.choice([0.0, -0.0], size=shape), X)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_array_kernels_equal_their_earlier_formulas_bit_for_bit(n):
    rng = np.random.default_rng(35 + n)
    d = 2 * n + 1
    N = 2000
    X, Y = _coords(rng, (N, d)), _coords(rng, (N, d))
    x, y = _coords(rng, (d,)), _coords(rng, (d,))
    for A, B in ((X, Y), (x, Y), (X, y), (x, y), (X[:7, None, :], Y[:5])):
        assert _same_bits(mul_arrays(A, B, n), _einsum_mul_arrays(A, B, n))
    for r in (1.7, -0.0, np.exp(rng.uniform(-3.0, 3.0, N)),
              np.exp(rng.uniform(-3.0, 3.0, (4, 1)))):
        assert _same_bits(dilate_arrays(r, X, n), _strided_dilate_arrays(r, X, n))
    assert _same_bits(dilate_arrays(0.5, x, n), _strided_dilate_arrays(0.5, x, n))
    # HPoint inputs, through the point operations
    p, q = HPoint(x), HPoint(y)
    assert _same_bits(group_mul(p, q).coords, _einsum_mul_arrays(x, y, n))
    assert _same_bits(group_mul(group_inv(p), p).coords, _einsum_mul_arrays(-x, x, n))
    assert _same_bits(dilate(2.5, p).coords, _strided_dilate_arrays(2.5, x, n))


def test_array_kernel_results_do_not_alias_their_inputs():
    rng = np.random.default_rng(7)
    X, Y = rng.uniform(-3.0, 3.0, (50, 5)), rng.uniform(-3.0, 3.0, (50, 5))
    r = np.exp(rng.uniform(-3.0, 3.0, 50))
    saved = [a.copy() for a in (X, Y, r)]
    for out in (mul_arrays(X, Y, 2), mul_arrays(X[0], Y, 2), dilate_arrays(r, X, 2),
                dilate_arrays(1.0, X, 2), dilate_arrays(r[:, None], X[0], 2)):
        out[...] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip((X, Y, r), saved))
    p = HPoint(X[0])
    dilate(1.0, p).coords[...] = 7.0
    group_mul(p, identity(2)).coords[...] = 7.0
    assert np.array_equal(p.coords, saved[0][0])
