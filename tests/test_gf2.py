import itertools

import numpy as np
import pytest

from friendlyfec import gf2


def all_row_combinations(M):
    """Row space of M by brute-force enumeration of all row subsets."""
    rows = M.shape[0]
    span = set()
    for picks in itertools.product([0, 1], repeat=rows):
        v = np.zeros(M.shape[1], dtype=np.uint8)
        for i, p in enumerate(picks):
            if p:
                v ^= M[i]
        span.add(tuple(v))
    return span


def test_rref_identity():
    R, pivots = gf2.rref(np.eye(2, dtype=np.uint8))
    assert np.array_equal(R, np.eye(2, dtype=np.uint8))
    assert pivots == [0, 1]


def test_rref_duplicate_rows():
    R, pivots = gf2.rref([[1, 1], [1, 1]])
    assert np.array_equal(R, [[1, 1], [0, 0]])
    assert pivots == [0]


def test_rref_preserves_row_space():
    rng = np.random.default_rng(7)
    for _ in range(5):
        M = rng.integers(0, 2, (5, 8)).astype(np.uint8)
        R, pivots = gf2.rref(M)
        assert all_row_combinations(M) == all_row_combinations(R)
        assert pivots == sorted(pivots)
        assert gf2.rank(M) == len(pivots)


def test_rref_zero_matrix():
    R, pivots = gf2.rref(np.zeros((2, 3), dtype=np.uint8))
    assert pivots == []
    assert not R.any()


def test_generator_repetition_null_space():
    H = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    G = gf2.generator_from_parity(H)
    assert np.array_equal(G, [[1, 1, 1]])
    # brute force: the only vectors with H v = 0 are 000 and 111
    null = {tuple(v) for v in itertools.product([0, 1], repeat=3)
            if not (np.array(v) @ H.T % 2).any()}
    assert null == {(0, 0, 0), (1, 1, 1)}


def test_generator_empty_constraint_spans_everything():
    G = gf2.generator_from_parity(np.zeros((1, 3), dtype=np.uint8))
    assert G.shape == (3, 3)
    assert all_row_combinations(G) == {t for t in itertools.product([0, 1], repeat=3)}


def test_generator_hamming():
    H = np.array([[1, 0, 1, 0, 1, 0, 1],
                  [0, 1, 1, 0, 0, 1, 1],
                  [0, 0, 0, 1, 1, 1, 1]], dtype=np.uint8)
    G = gf2.generator_from_parity(H)
    assert G.shape == (4, 7)
    assert gf2.rank(G) == 4
    for m in itertools.product([0, 1], repeat=4):
        x = gf2.encode(np.array(m, dtype=np.uint8), G)
        assert not gf2.matmul(H, x[:, None]).any()


def test_generator_degenerate_code_rejected():
    with pytest.raises(ValueError, match="k = 0"):
        gf2.generator_from_parity(np.eye(3, dtype=np.uint8))


def test_generator_drops_redundant_rows(caplog):
    H = np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    with caplog.at_level("WARNING"):
        G = gf2.generator_from_parity(H)
    assert G.shape == (1, 3)
    assert "redundant" in caplog.text


def test_encode_examples():
    G = np.array([[1, 1, 1]], dtype=np.uint8)
    assert np.array_equal(gf2.encode([0], G), [0, 0, 0])
    assert np.array_equal(gf2.encode([1], G), [1, 1, 1])
    with pytest.raises(ValueError):
        gf2.encode([1, 0], G)


def test_encode_linearity():
    rng = np.random.default_rng(3)
    H = rng.integers(0, 2, (4, 10)).astype(np.uint8)
    G = gf2.generator_from_parity(H)
    k = G.shape[0]
    for _ in range(10):
        m1 = rng.integers(0, 2, k).astype(np.uint8)
        m2 = rng.integers(0, 2, k).astype(np.uint8)
        lhs = gf2.encode(m1 ^ m2, G)
        rhs = gf2.encode(m1, G) ^ gf2.encode(m2, G)
        assert np.array_equal(lhs, rhs)
        assert not gf2.matmul(H, gf2.encode(m1, G)[:, None]).any()


def test_encode_no_uint8_overflow():
    # wide all-ones products: row sums exceed 255 and must not wrap, up to an
    # inner dimension of 1024, the package's code-size limit; every product
    # below equals the int64 one reduced mod 2
    for width in (300, 1023, 1024):
        G = np.ones((width, width), dtype=np.uint8)
        m = np.ones(width, dtype=np.uint8)
        assert np.array_equal(gf2.encode(m, G), np.full(width, width % 2, dtype=np.uint8))
    # random bit operands of any rank
    rng = np.random.default_rng(13)
    G = rng.integers(0, 2, (40, 70)).astype(np.uint8)
    for shape in ((40,), (25, 40), (3, 5, 40)):
        m = rng.integers(0, 2, shape).astype(np.uint8)
        want = ((m.astype(np.int64) @ G.astype(np.int64)) % 2).astype(np.uint8)
        for got in (gf2.matmul(m, G), gf2.encode(m, G), gf2.encode(m.astype(bool), G)):
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert np.array_equal(got, want)
    empty = gf2.encode(np.zeros((0, 40), dtype=np.uint8), G)
    assert empty.shape == (0, 70) and empty.dtype == np.uint8
    # 38 and 40 bits pack into the same five bytes; the shapes must still agree
    with pytest.raises(ValueError, match="cannot multiply"):
        gf2.matmul(np.ones((2, 38), dtype=np.uint8), G)


@pytest.mark.parametrize("entry", [2, 3, 0.7, -1, np.nan])
def test_encode_rejects_entries_outside_0_1(entry, monkeypatch):
    # read modulo 2, 2 would encode as 0 and -1 as 1; they fail before the product
    def product(A, B):
        raise AssertionError("the product ran on a bad message")

    monkeypatch.setattr(gf2, "matmul", product)
    with pytest.raises(ValueError, match="message entries must be 0 or 1"):
        gf2.encode(np.array([1, 0, entry]), np.eye(3, dtype=np.uint8))


def test_inv_round_trip():
    rng = np.random.default_rng(11)
    found = 0
    while found < 5:
        A = rng.integers(0, 2, (6, 6)).astype(np.uint8)
        if gf2.rank(A) < 6:
            continue
        found += 1
        assert np.array_equal(gf2.matmul(A, gf2.inv(A)), np.eye(6, dtype=np.uint8))
    with pytest.raises(ValueError, match="singular"):
        gf2.inv(np.zeros((2, 2), dtype=np.uint8))


def test_bitmatrix_validation():
    with pytest.raises(ValueError):
        gf2.as_bitmatrix([[2, 0]])
    with pytest.raises(ValueError):
        gf2.as_bitmatrix(np.ones(3))
