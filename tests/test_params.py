import math
from dataclasses import replace

import pytest

from dyncolor.params import ParamSet, auto_epsilon, trivial_cutoff


def test_defaults_and_derivations():
    p = ParamSet(epsilon=0.3)
    assert p.tau == pytest.approx(0.1)
    assert p.nu == pytest.approx(0.2)
    assert p.c_scale(1) == pytest.approx(0.4)
    assert p.c3 == pytest.approx(1.0)
    assert p.fire_limit(80) == pytest.approx(0.1 * 80 / 8)
    assert p.collapse_limit(80) == pytest.approx(0.2 * 80)
    assert p.regime_limit(100) == pytest.approx(0.09 * 100)
    assert p.dispatch_limit(100) == pytest.approx(10)
    assert p.heavy_limit(100) == pytest.approx(1)


def test_phase_len_and_sample_count_follow_one_rule():
    # the paper's T = floor(eps^2 delta / (18 e^6)) never exceeds delta // 8,
    # so the clamp alone is the phase length; k is the paper's, capped at 96
    for eps, tau in [(0.05, None), (0.2, None), (0.5, 0.01), (0.9, 0.9)]:
        p = ParamSet(epsilon=eps, tau=tau)
        for delta in (0, 1, 127, 128, 136, 2048, 10**7):
            assert p.phase_len(delta) == max(16, delta // 8)
        for n in (1, 2, 8, 64, 256, 10**6):
            want_k = math.ceil(12 * 3 * math.log(max(n, 2)) / p.tau**2)
            assert p.sample_count(n) == min(want_k, 96)
    # at tiny n and large tau the derived k stays below the clamp
    assert ParamSet(epsilon=0.9, tau=0.9).sample_count(8) == 93


def test_tau_cannot_exceed_epsilon():
    with pytest.raises(ValueError):
        ParamSet(epsilon=0.1, tau=0.2)
    ParamSet(epsilon=0.1, tau=0.1)  # equality allowed


@pytest.mark.parametrize("tau", [0.0, -0.1])
def test_tau_at_or_below_zero_is_refused(tau):
    # tau = 0 was accepted, and the engine then died dividing by tau**2 in
    # the derived sample count
    with pytest.raises(ValueError, match=r"tau must lie in \(0, epsilon\]"):
        ParamSet(tau=tau)


@pytest.mark.parametrize("cap_factor", [0, -3])
def test_cap_factor_below_one_is_refused(cap_factor):
    # a loop cap of 0 or less left the rejection loop without an attempt
    with pytest.raises(ValueError):
        ParamSet(cap_factor=cap_factor)
    assert ParamSet(cap_factor=1).loop_cap(6) == 3


@pytest.mark.parametrize("k", [0, -1])
def test_sample_count_below_one_is_refused(k):
    # k = 0 put every friend threshold at 0: every edge a friend at every scale
    with pytest.raises(ValueError):
        ParamSet(sample_count_k=k)
    assert ParamSet(sample_count_k=1).sample_count(10) == 1


@pytest.mark.parametrize("t", [0, -3])
def test_phase_len_below_one_is_refused(t):
    # a phase length of 0 or less once ran silently as a phase of one update
    with pytest.raises(ValueError, match="^phase_len_t must be at least 1$"):
        ParamSet(phase_len_t=t)
    assert ParamSet(phase_len_t=1).phase_len(64) == 1


@pytest.mark.parametrize("nu", [0.0, -0.5])
def test_nu_at_or_below_zero_is_refused(nu):
    # nu <= 0 once ran silently as a collapse limit of 1
    with pytest.raises(ValueError, match="^nu must be positive$"):
        ParamSet(nu=nu)
    assert ParamSet(nu=0.5).collapse_limit(1) == 1.0  # a derived limit keeps its clamp


@pytest.mark.parametrize("fire", [0.0, -2.0])
def test_fire_threshold_below_one_is_refused(fire):
    # a threshold below 1 once ran silently as a fire limit of 1
    with pytest.raises(ValueError, match="^fire_threshold must be at least 1$"):
        ParamSet(fire_threshold=fire)
    assert ParamSet(fire_threshold=1.0).fire_limit(64) == 1.0
    assert ParamSet(tau=0.01).fire_limit(64) == 1.0  # a derived limit keeps its clamp


def test_desk_sampling_is_capped():
    p = ParamSet(epsilon=0.2)
    assert p.sample_count(10**6) <= 96
    assert p.loop_cap(1000) == p.cap_factor * math.ceil(math.log2(1002))


def test_auto_tuning_formulas():
    n, delta = 4096, 2048
    assert auto_epsilon(n, delta) == pytest.approx(delta**0.2 / n**0.4)
    assert trivial_cutoff(n) == pytest.approx(n ** (8.0 / 9.0))


def test_seed_override():
    p = ParamSet(epsilon=0.2, seed=1)
    q = replace(p, seed=9)
    assert q.seed == 9 and q.epsilon == p.epsilon
