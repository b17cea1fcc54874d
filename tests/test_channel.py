import math

import numpy as np
import pytest

import oracles
from polarfec import (
    OOK_AMPLITUDE,
    ChannelParams,
    hard_slice,
    llr_from_awgn,
    modulate,
)


class TestChannelParams:
    def test_sigma_formula(self):
        p = ChannelParams(0.0, 11 / 16)
        assert p.noise_sigma**2 == pytest.approx(8 / 11)

    def test_sigma_at_high_snr(self):
        p = ChannelParams(60.0, 0.5)
        assert p.noise_sigma < 1.1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(0.0, 0.5, "qam")
        with pytest.raises(ValueError):
            ChannelParams(0.0, 0.0)


BPSK = ChannelParams(3.0, 0.5)
OOK = ChannelParams(3.0, 0.5, "ook")


class TestModulate:
    def test_bpsk_mapping(self):
        assert np.array_equal(modulate([0, 1, 0], BPSK), [1.0, -1.0, 1.0])

    def test_ook_zeros(self):
        assert np.array_equal(modulate([0, 0, 0], OOK), [0.0, 0.0, 0.0])

    def test_ook_amplitude(self):
        assert np.array_equal(modulate([1], OOK), [OOK_AMPLITUDE])
        assert OOK_AMPLITUDE == pytest.approx(math.sqrt(2.0))

    def test_equal_mean_energy(self, rng):
        bits = rng.integers(0, 2, 10**6)
        e_bpsk = np.mean(modulate(bits, BPSK) ** 2)
        e_ook = np.mean(modulate(bits, OOK) ** 2)
        assert e_bpsk == pytest.approx(1.0)
        assert e_ook == pytest.approx(1.0, rel=3e-3)

    @pytest.mark.parametrize("params", [BPSK, OOK], ids=["bpsk", "ook"])
    def test_round_trip_follows_params(self, params):
        # one ChannelParams picks the modulation for every channel step
        symbols = modulate([0, 1], params)
        zero, one = llr_from_awgn(symbols, params)
        assert zero > 0 > one
        assert np.array_equal(hard_slice(symbols, params), [0, 1])


class TestLlr:
    def test_bpsk_pinned(self):
        params = ChannelParams(0.0, 0.5)  # sigma^2 = 1
        assert llr_from_awgn(np.array([1.0]), params)[0] == pytest.approx(2.0)
        assert llr_from_awgn(np.array([0.0]), params)[0] == 0.0

    def test_bpsk_rate_adjusted(self):
        params = ChannelParams(0.0, 11 / 16)  # sigma^2 = 8/11
        assert llr_from_awgn(np.array([1.0]), params)[0] == pytest.approx(2.75)

    def test_ook_sign_convention(self):
        params = ChannelParams(3.0, 0.5, "ook")
        a = OOK_AMPLITUDE
        low, mid, high = llr_from_awgn(np.array([0.0, a / 2, a]), params)
        assert low > 0  # dark symbol favours bit 0
        assert mid == pytest.approx(0.0, abs=1e-12)
        assert high < 0

    def test_llr_calibration(self, rng):
        # P(bit=0 | LLR in a small bin) should track sigmoid(LLR)
        params = ChannelParams(2.0, 0.5)
        bits = rng.integers(0, 2, 10**6)
        received = modulate(bits, params) + rng.normal(0, params.noise_sigma, 10**6)
        llrs = llr_from_awgn(received, params)
        edges = np.arange(-4.0, 4.5, 0.5)
        for lo, hi in zip(edges, edges[1:]):
            sel = (llrs >= lo) & (llrs < hi)
            if sel.sum() < 2000:
                continue
            p_zero = np.mean(bits[sel] == 0)
            centre = llrs[sel].mean()
            expected = 1.0 / (1.0 + math.exp(-centre))
            assert p_zero == pytest.approx(expected, abs=0.02)


class TestHardSlice:
    def test_bpsk_pinned(self):
        params = ChannelParams(0.0, 0.5)
        assert np.array_equal(hard_slice(np.array([0.3, -0.1]), params), [0, 1])

    def test_tie_rule(self):
        params = ChannelParams(0.0, 0.5)
        assert hard_slice(np.array([0.0]), params)[0] == 0
        ook = ChannelParams(0.0, 0.5, "ook")
        assert hard_slice(np.array([OOK_AMPLITUDE / 2]), ook)[0] == 0
        assert hard_slice(np.array([OOK_AMPLITUDE]), ook)[0] == 1

    def test_crossover_matches_q_function(self, rng):
        params = ChannelParams(4.0, 11 / 16)
        bits = rng.integers(0, 2, 10**6)
        received = modulate(bits, params) + rng.normal(0, params.noise_sigma, 10**6)
        sliced = hard_slice(received, params)
        p_hat = np.mean(sliced != bits)
        p_theory = oracles.q_function(1.0 / params.noise_sigma)
        assert p_hat == pytest.approx(p_theory, rel=0.02)
