import re

import numpy as np
import pytest

from friendlyfec import codes, gf2

# hand-written alist for H = [[1,1,0],[0,1,1]] (9 lines)
SMALL_ALIST = """3 2
2 2
1 2 1
2 2
1 0
1 2
2 0
1 2
2 3
"""


def test_load_alist_hand_written():
    H = codes.load_alist(SMALL_ALIST)
    assert np.array_equal(H, [[1, 1, 0], [0, 1, 1]])


def test_alist_rejects_zero_index_inside_list():
    bad = SMALL_ALIST.replace("1 2\n2 3\n", "0 2\n2 3\n")
    with pytest.raises(codes.AlistError):
        codes.load_alist(bad)


def test_alist_degree_mismatch():
    bad = SMALL_ALIST.replace("1 2 1", "1 1 1")
    with pytest.raises(codes.AlistError, match="degree"):
        codes.load_alist(bad)


def test_alist_truncated():
    lines = SMALL_ALIST.splitlines()[:6]
    with pytest.raises(codes.AlistError, match="truncated"):
        codes.load_alist("\n".join(lines))


def test_alist_out_of_range_index():
    bad = SMALL_ALIST.replace("2 3\n", "2 4\n")
    with pytest.raises(codes.AlistError, match="out of range"):
        codes.load_alist(bad)


def test_alist_cross_check_disagreement():
    # column lists describe edge (1,2) but row lists claim (1,1)
    bad = SMALL_ALIST.replace("1 2\n2 0\n", "1 2\n1 0\n").replace("2 3", "1 3")
    with pytest.raises(codes.AlistError):
        codes.load_alist(bad)


def test_alist_error_carries_line_number():
    bad = SMALL_ALIST.replace("1 2 1", "1 x 1")
    with pytest.raises(codes.AlistError, match="line 3"):
        codes.load_alist(bad)


def test_alist_round_trip_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        H = (rng.random((6, 12)) < 0.3).astype(np.uint8)
        H[0, 0] = 1  # avoid an all-zero matrix
        assert np.array_equal(codes.load_alist(codes.save_alist(H)), H)


def test_bundled_ldpc():
    code = codes.ldpc_64_32()
    assert (code.n, code.k) == (64, 32)
    assert gf2.rank(code.H) == 32
    assert not gf2.matmul(code.G, code.H.T).any()
    # unequal protection is intentional: degree-1 extension bits up to
    # degree-8 core bits, 4-cycle free
    col = code.H.sum(axis=0)
    assert col.min() == 1 and col.max() == 8
    overlap = code.H.T.astype(int) @ code.H.astype(int)
    np.fill_diagonal(overlap, 0)
    assert overlap.max() <= 1


def test_bhattacharyya_hand_values():
    assert np.allclose(codes.bhattacharyya_recursion(2, 0.5), [0.75, 0.25])
    assert np.allclose(codes.bhattacharyya_recursion(4, 0.5),
                       [0.9375, 0.5625, 0.4375, 0.0625])
    assert not codes.bhattacharyya_recursion(8, 0.0).any()
    with pytest.raises(ValueError):
        codes.bhattacharyya_recursion(3, 0.5)


def test_bhattacharyya_child_ordering():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.random()
        children = codes.bhattacharyya_recursion(2, z)
        assert 0.0 <= children[1] <= z <= children[0] <= 1.0


def test_polar_bhattacharyya_range():
    z = codes.polar_bhattacharyya(64, design_ebn0_db=2.0, rate=0.5)
    assert z.shape == (64,)
    assert np.all((z >= 0.0) & (z <= 1.0))


def recursive_bhattacharyya(bits, z0):
    """Independent oracle: evaluate one channel by walking its index bits."""
    z = z0
    for b in bits:
        z = z * z if b else 2 * z - z * z
    return z


def test_polar_frozen_small():
    # any z0 in (0,1) freezes the two largest of n=4: indices 0 and 1
    code = codes.polar_construct(4, 2, design_ebn0_db=0.0)
    assert code.frozen == (0, 1)


def test_polar_frozen_matches_recursive_oracle():
    n, k, design = 8, 4, 1.0
    code = codes.polar_construct(n, k, design)
    z0 = codes.design_z0(design, rate=k / n)
    m = 3
    oracle = np.array([recursive_bhattacharyya(
        [(i >> (m - 1 - lvl)) & 1 for lvl in range(m)], z0) for i in range(n)])
    expect = set(np.argsort(-oracle, kind="stable")[: n - k].tolist())
    assert set(code.frozen) == expect


def test_polar_design_ebn0_must_be_a_finite_level_in_range():
    # +-inf tie every Bhattacharyya parameter at 0 or 1, and 1e308 overflows 10^(x / 10)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match=re.escape(f"design_ebn0_db must be finite, got {bad!r}")):
            codes.polar_construct(64, 32, bad)
    for bad in (1e308, -1e308):
        with pytest.raises(ValueError, match=re.escape(f"design_ebn0_db {bad!r} dB is out of range")):
            codes.polar_construct(64, 32, bad)
        with pytest.raises(ValueError, match="design_ebn0_db"):
            codes.design_z0(bad, rate=0.5)


def test_polar_design_that_ties_the_frozen_boundary_is_rejected():
    # (64, 32) ties its 32nd and 33rd largest Bhattacharyya parameters from 22.75 dB
    # up and from -20.25 dB down; from 29 dB up and at -200 dB every parameter ties
    for bad in (25.0, 29.0, 40.0, -50.0, -200.0):
        with pytest.raises(ValueError, match=re.escape(f"design_ebn0_db = {bad} ties")):
            codes.polar_construct(64, 32, bad)
    ids = {db: codes.polar_construct(64, 32, db).name for db in (0.0, 2.0, 3.0, 5.0, 10.0, 20.0)}
    assert ids == dict.fromkeys((0.0, 2.0, 3.0), "polar_64_32_4328b462faee") | \
        dict.fromkeys((5.0, 10.0, 20.0), "polar_64_32_72d0c5d6ac38")


def test_polar_parity_consistency():
    for n, k in [(4, 2), (8, 4), (16, 11), (64, 32)]:
        code = codes.polar_construct(n, k, design_ebn0_db=2.0)
        assert code.k == k
        assert not gf2.matmul(code.G, code.H.T).any()
        assert gf2.rank(code.H) == n - k


def test_polar_full_rate():
    code = codes.polar_construct(4, 4, design_ebn0_db=2.0)
    assert code.frozen == ()
    assert np.array_equal(code.G, codes.kron_power(2))


def test_polar_id_follows_the_frozen_set():
    # design SNRs 2 and 5 dB freeze different inputs of the (64, 32) code, 2 and 3 dB the same
    at2, at3, at5 = (codes.polar_construct(64, 32, db) for db in (2.0, 3.0, 5.0))
    assert at2.frozen != at5.frozen and not np.array_equal(at2.H, at5.H)
    assert at2.name != at5.name
    assert at2.frozen == at3.frozen and at2.name == at3.name
    assert at2.name.startswith("polar_64_32_")


def test_alist_code_id_is_a_digest_of_h():
    ham, rep = codes.hamming_7_4(), codes.repetition_code(7)
    named = codes.code_from_alist(codes.save_alist(ham.H))
    assert named.name.startswith("alist-") and len(named.name) == len("alist-") + 12
    # the id depends on H alone: blank lines do not change it, another H does
    spaced = codes.code_from_alist(codes.save_alist(ham.H).replace("\n", "\n\n"))
    assert spaced.name == named.name
    assert codes.code_from_alist(codes.save_alist(rep.H)).name != named.name
    assert codes.code_from_alist(codes.save_alist(ham.H), name="mine").name == "mine"
    assert codes.ldpc_64_32().name == "ldpc_64_32"


def test_polar_bad_arguments():
    with pytest.raises(ValueError):
        codes.polar_construct(6, 3, 2.0)
    with pytest.raises(ValueError):
        codes.polar_construct(8, 0, 2.0)


def test_message_round_trip():
    rng = np.random.default_rng(2)
    for code in [codes.hamming_7_4(), codes.repetition_code(5),
                 codes.polar_construct(16, 9, 2.0), codes.ldpc_64_32()]:
        msgs = rng.integers(0, 2, (20, code.k)).astype(np.uint8)
        words = gf2.encode(msgs, code.G)
        assert np.array_equal(code.message_from_codeword(words), msgs)


@pytest.mark.parametrize("entry", [3, 2, -1, 0.5, np.nan])
def test_message_from_codeword_rejects_entries_outside_0_1(entry, monkeypatch):
    code = codes.hamming_7_4()
    word = gf2.encode([1, 0, 1, 1], code.G)
    assert np.array_equal(code.message_from_codeword(word.astype(bool)), [1, 0, 1, 1])

    def product(A, B):
        raise AssertionError("the product ran on a bad codeword")

    monkeypatch.setattr(gf2, "matmul", product)
    bad = word.astype(np.float64)
    bad[code._extract_cols[0]] = entry  # read modulo 2, 3 would pass as 1
    with pytest.raises(ValueError, match="codeword entries must be 0 or 1"):
        code.message_from_codeword(bad)


def test_codespec_rejects_inconsistent_generator():
    H = np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        codes.CodeSpec.from_parity("bad", H, G=np.array([[1, 0, 0]], dtype=np.uint8))


def test_uncoded():
    code = codes.uncoded(8)
    assert code.k == 8
    assert np.array_equal(code.G, np.eye(8, dtype=np.uint8))
