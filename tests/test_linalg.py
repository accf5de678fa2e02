import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg

from sidshrink.errors import DataError, NumericalError
from sidshrink.linalg import (
    build_hankel,
    build_selectors,
    frobenius,
    pseudo_det,
    psd_sqrt,
    toeplitz_from_col,
    toeplitz_project,
    vec,
)


def test_vec_is_column_major():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])


def test_frobenius_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((37, 23)) * 10.0 ** rng.uniform(-3, 3, (37, 23))
    cases = [rng.standard_normal(n) for n in (1, 7, 1000)]
    cases += [m, m.T, m[::3, 1::2], np.asfortranarray(m), np.zeros((2, 3))]
    for x in cases:
        assert frobenius(x) == np.linalg.norm(x)


def test_hankel_scalar_indexing():
    h = build_hankel(np.arange(10.0), block_rows=3, cols=4, start=2)
    assert h.shape == (3, 4)
    assert np.array_equal(h[0], [2, 3, 4, 5])
    # constant anti-diagonals
    for k in range(3):
        for l in range(4):
            assert h[k, l] == 2 + k + l


def test_hankel_vector_signal_row_layout():
    s = np.column_stack([np.arange(6.0), 10 + np.arange(6.0)])
    h = build_hankel(s, block_rows=2, cols=3)
    # block row k stacks both channels of sample k+l
    assert np.array_equal(h[0], [0, 1, 2])
    assert np.array_equal(h[1], [10, 11, 12])
    assert np.array_equal(h[2], [1, 2, 3])
    assert np.array_equal(h[3], [11, 12, 13])


def test_hankel_is_the_gathered_layout_bit_for_bit():
    # the window copy equals the fancy-index gather it replaced
    rng = np.random.default_rng(8)
    for d, rows, cols, start in [(1, 3, 40, 2), (2, 5, 17, 0), (3, 1, 1, 4), (1, 20, 1961, 20)]:
        s = rng.standard_normal((start + rows + cols - 1 + 3, d))
        idx = start + np.arange(rows)[:, None] + np.arange(cols)[None, :]
        ref = s[idx].transpose(0, 2, 1).reshape(rows * d, cols)
        h = build_hankel(s, rows, cols, start)
        assert h.flags.c_contiguous and not np.shares_memory(h, s)
        assert np.array_equal(h.view(np.uint64), ref.view(np.uint64))


def test_hankel_length_guard():
    with pytest.raises(DataError):
        build_hankel(np.arange(5.0), block_rows=3, cols=4)
    with pytest.raises(ValueError):
        build_hankel(np.arange(5.0), block_rows=0, cols=2)


def test_selector_toeplitz_map():
    rng = np.random.default_rng(1)
    i = 4
    sel = build_selectors(i, 6)
    e = rng.standard_normal(i)  # last row of G, left to right
    g = np.zeros((i, i))
    for k in range(i):
        for l in range(k + 1):
            g[k, l] = e[i - 1 - k + l]
    assert np.allclose(sel.b_t @ e, vec(g))
    # rows for strictly upper positions are identically zero
    upper = [k + l * i for k in range(i) for l in range(i) if k < l]
    assert np.all(sel.b_t[upper] == 0)


def test_selector_hankel_map_and_multiplicities():
    rng = np.random.default_rng(2)
    i, n = 3, 5
    sel = build_selectors(i, n)
    e = rng.standard_normal(i + n - 1)
    h = scipy.linalg.hankel(e[:i], e[i - 1:])
    assert np.allclose(sel.b_w @ e, vec(h))
    counts = np.diag(sel.b_w.T @ sel.b_w)
    expect = [min(d + 1, i, n, i + n - 1 - d) for d in range(i + n - 1)]
    assert np.array_equal(counts, expect)
    assert np.allclose(sel.b_w.T @ sel.b_w, np.diag(counts))


def test_psd_sqrt_roundtrip():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 5))
    m = x @ x.T + 0.1 * np.eye(5)
    r = psd_sqrt(m)
    assert np.allclose(r @ r, m, atol=1e-10)
    r_inv = psd_sqrt(m, inverse=True)
    assert np.allclose(r_inv @ m @ r_inv, np.eye(5), atol=1e-10)


def test_psd_sqrt_clips_rounding_noise():
    m = np.diag([1.0, -1e-15])
    r = psd_sqrt(m)
    assert np.all(np.isfinite(r))
    assert r[1, 1] == 0.0


def test_psd_sqrt_inverse_rejects_singular():
    with pytest.raises(NumericalError):
        psd_sqrt(np.diag([1.0, 0.0]), inverse=True)


def test_pseudo_det_values():
    assert pseudo_det(np.diag([3.0, 2.0, 0.0])) == pytest.approx(6.0)
    assert pseudo_det(np.zeros((3, 3))) == 1.0
    # rank-r scaling: pdet(c M) = c^r pdet(M)
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
    ratio = pseudo_det(3.0 * m) / pseudo_det(m)
    assert ratio == pytest.approx(9.0, rel=1e-10)


def test_toeplitz_project_fixed_point_and_idempotence():
    rng = np.random.default_rng(5)
    t = toeplitz_from_col(rng.standard_normal(5))
    assert np.allclose(toeplitz_project(t), t)
    m = rng.standard_normal((5, 5))
    p1 = toeplitz_project(m)
    assert np.allclose(toeplitz_project(p1), p1)


def test_toeplitz_project_is_the_per_diagonal_mean():
    # bit for bit: the cva weights are built from this projection, and a
    # reordered sum moved the effective-rank order of some benchmark runs
    rng = np.random.default_rng(7)
    for n in range(1, 31):
        m = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        expect = toeplitz_from_col([np.diagonal(m, -d).mean() for d in range(n)])
        assert np.array_equal(toeplitz_project(m), expect)


def _per_diagonal_reduce(m):
    n = m.shape[0]
    sums = np.array([np.add.reduce(m.diagonal(-d)) for d in range(n)])
    return toeplitz_from_col(sums / np.arange(n, 0, -1))


def test_toeplitz_project_is_the_per_diagonal_reduce_in_every_bit():
    # n <= 128 takes one reduce over all subdiagonals, n > 128 one reduce
    # per subdiagonal; NaN payloads, infinities and signed zeros included
    rng = np.random.default_rng(8)
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324])
    for n in range(1, 161):
        for trial in range(3):
            m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-5.0, 5.0, (n, n))
            if trial:
                hit = rng.random((n, n)) < (0.02 if trial == 1 else 0.5)
                m[hit] = rng.choice(specials, hit.sum())
            wide = np.empty((n, 2 * n))
            wide[:, ::2] = m
            for a in (m, np.asfortranarray(m), wide[:, ::2]):
                with np.errstate(invalid="ignore"):
                    got, expect = toeplitz_project(a), _per_diagonal_reduce(a)
                assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), n


_SQUARE = st.integers(1, 40).flatmap(lambda n: hnp.arrays(
    np.float64, (n, n), elements=st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False)))


@hypothesis.given(m=_SQUARE)
def test_toeplitz_project_is_an_orthogonal_projection(m):
    n = m.shape[0]
    p1 = toeplitz_project(m)
    scale = max(np.abs(m).max(), 1.0)
    # idempotent up to the rounding of a mean of equal values
    assert np.allclose(toeplitz_project(p1), p1, rtol=1e-13, atol=1e-13 * scale)
    # the residue is orthogonal to every basis direction: each subdiagonal
    # of m - P m sums to zero
    resid = m - p1
    for d in range(n):
        assert abs(resid.diagonal(-d).sum()) <= 1e-12 * scale * n


def test_toeplitz_project_is_orthogonal():
    # residual orthogonal to every lower-triangular Toeplitz direction
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 6))
    resid = m - toeplitz_project(m)
    for _ in range(10):
        t = toeplitz_from_col(rng.standard_normal(6))
        assert abs(np.sum(resid * t)) < 1e-10


def test_toeplitz_from_col_layout():
    g = toeplitz_from_col([1.0, 2.0, 3.0])
    assert np.array_equal(g, [[1, 0, 0], [2, 1, 0], [3, 2, 1]])


def test_toeplitz_project_requires_square():
    with pytest.raises(ValueError):
        toeplitz_project(np.zeros((2, 3)))
