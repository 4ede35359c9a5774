import math

import numpy as np
import pytest

from friendlyfec import bp, modem


def gaussian_log_density(y, mean, sigma):
    return -0.5 * math.log(2 * math.pi * sigma**2) - (y - mean) ** 2 / (2 * sigma**2)


def test_bpsk_modulate():
    c = modem.get_constellation("bpsk")
    assert np.array_equal(modem.modulate(np.array([0, 1]), c), [1.0, -1.0])


def test_qam4_modulate_pairs():
    c = modem.get_constellation("qam4")
    a = 1 / math.sqrt(2)
    assert np.allclose(modem.modulate(np.array([0, 0]), c), [a, a])
    assert np.allclose(modem.modulate(np.array([0, 1]), c), [a, -a])
    assert np.allclose(modem.modulate(np.array([1, 0]), c), [-a, a])
    # table lookup agrees with the elementwise map
    for label, point in zip(c.bit_labels, c.points):
        assert np.allclose(modem.modulate(label, c), point)


def test_all_zero_maps_to_s0():
    for scheme in ("bpsk", "qam4"):
        c = modem.get_constellation(scheme)
        s = modem.modulate(np.zeros(8, dtype=np.uint8), c)
        assert np.allclose(s.reshape(-1, c.coords_per_symbol), c.s0)


def test_unit_mean_energy():
    for scheme in ("bpsk", "qam4"):
        c = modem.get_constellation(scheme)
        assert np.mean(np.sum(c.points**2, axis=1)) == pytest.approx(1.0, abs=1e-15)


def test_qam4_gray_labels():
    c = modem.get_constellation("qam4")
    pts = c.points
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            dist = np.linalg.norm(pts[i] - pts[j])
            bits_differ = int(np.sum(c.bit_labels[i] != c.bit_labels[j]))
            if dist == pytest.approx(math.sqrt(2), rel=1e-12):  # nearest neighbors
                assert bits_differ == 1


def test_modulate_validation():
    c = modem.get_constellation("qam4")
    with pytest.raises(ValueError):
        modem.modulate(np.array([0, 1, 0]), c)
    with pytest.raises(ValueError):
        modem.modulate(np.array([0, 2]), modem.get_constellation("bpsk"))


def test_llr_zero_symmetry():
    c = modem.get_constellation("bpsk")
    assert modem.demodulate_llr(np.zeros(4), 0.7, c) == pytest.approx(0.0)
    y = np.array([0.3, -1.2, 2.0])
    assert np.allclose(modem.demodulate_llr(-y, 0.7, c),
                       -modem.demodulate_llr(y, 0.7, c))


@pytest.mark.parametrize("sigma,y,expect", [(1.0, 1.0, 2.0), (0.5, -0.5, -4.0)])
def test_bpsk_llr_density_ratio(sigma, y, expect):
    # oracle: log N(y; +1, sigma^2) - log N(y; -1, sigma^2)
    oracle = gaussian_log_density(y, 1.0, sigma) - gaussian_log_density(y, -1.0, sigma)
    c = modem.get_constellation("bpsk")
    L = modem.demodulate_llr(np.array([y]), sigma, c)
    assert L[0] == pytest.approx(oracle, rel=1e-12)
    assert L[0] == pytest.approx(expect, rel=1e-12)


def test_qam4_llr_density_ratio():
    # exact log-sum-exp over the two points per bit hypothesis collapses to
    # the per-coordinate antipodal formula; check bit 0 of one symbol
    c = modem.get_constellation("qam4")
    sigma, y = 0.8, np.array([0.37, -0.61])
    L = modem.demodulate_llr(y, sigma, c)

    def log_p(bit_index, value):
        terms = []
        for label, point in zip(c.bit_labels, c.points):
            if label[bit_index] == value:
                terms.append(sum(gaussian_log_density(y[d], point[d], sigma) for d in range(2)))
        m = max(terms)
        return m + math.log(sum(math.exp(t - m) for t in terms))

    for bit in range(2):
        oracle = log_p(bit, 0) - log_p(bit, 1)
        assert L[bit] == pytest.approx(oracle, rel=1e-12)


def test_fading_llr_uses_gains():
    c = modem.get_constellation("bpsk")
    gains = np.array([0.5, 2.0, 1.0])
    y = np.array([1.0, 1.0, 1.0])
    assert np.allclose(modem.demodulate_llr(y, 1.0, c, gains), 2.0 * gains)
    with pytest.raises(ValueError, match="gains"):
        modem.demodulate_llr(np.ones(4), 1.0, c, gains)


def test_adjoint_zero_and_basis():
    c = modem.get_constellation("bpsk")
    assert not modem.demodulate_adjoint(np.zeros(3), 1.0, c).any()
    e1 = np.zeros(3)
    e1[1] = 1.0
    assert np.allclose(modem.demodulate_adjoint(e1, 1.0, c), 2.0 * e1)


@pytest.mark.parametrize("scheme", ["bpsk", "qam4"])
def test_adjoint_matches_finite_differences(scheme):
    rng = np.random.default_rng(4)
    c = modem.get_constellation(scheme)
    y = rng.normal(0, 1, 8)
    w = rng.normal(0, 1, 8)
    analytic = modem.demodulate_adjoint(w, 0.6, c)
    fd = bp.finite_difference(lambda v: float(w @ modem.demodulate_llr(v, 0.6, c)), y)
    rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-12)
    assert rel.max() < 1e-6


def test_adjoint_with_gains_matches_finite_differences():
    rng = np.random.default_rng(6)
    c = modem.get_constellation("qam4")
    gains = rng.rayleigh(1 / math.sqrt(2), 4)
    y = rng.normal(0, 1, 8)
    w = rng.normal(0, 1, 8)
    analytic = modem.demodulate_adjoint(w, 0.9, c, gains)
    fd = bp.finite_difference(lambda v: float(w @ modem.demodulate_llr(v, 0.9, c, gains)), y)
    assert np.allclose(analytic, fd, rtol=1e-6, atol=1e-9)


def test_demodulate_validation():
    c = modem.get_constellation("bpsk")
    for sigma in (0.0, -1.0, math.inf, math.nan):
        for demap in (modem.demodulate_llr, modem.demodulate_adjoint):
            with pytest.raises(ValueError, match="sigma must be positive and finite"):
                demap(np.ones(3), sigma, c)
    with pytest.raises(ValueError):
        modem.get_constellation("qam64")
