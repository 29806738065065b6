import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symmaxent.linalg import hermitian
from symmaxent.measurement import (
    NoiseConfig,
    click_probability,
    estimate_expectations,
    photon_number_statistics,
    projector_modes,
    simulate_counts,
    stack_modes,
)
from symmaxent.observables import KINDS, canonical_set, expectation, pauli_basis, sic_povm
from symmaxent.states import DensityMatrix

from conftest import I2, SX, SZ, kron_chain, random_mixed_state


def zero_state():
    return DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


def estimate_one(counts, modes, cfg):
    """(estimate, variance) of a batch of one."""
    estimates, variances = estimate_expectations(counts, modes, cfg)
    assert estimates.shape == variances.shape == (1,)
    return float(estimates[0]), float(variances[0])


def mode_probabilities(rho, modes):
    vectors = modes.vectors
    return [float(np.clip((v.conj() @ rho.matrix @ v).real, 0.0, 1.0)) for v in vectors.T]


def reference_estimate(counts, modes, cfg):
    """One mode at a time, as the estimator did before it was vectorised."""
    vectors, weights = modes
    p_hats = []
    for c in counts:
        freq = int(c) / cfg.trials
        if cfg.mode == "photon_model":
            freq = min(freq, (cfg.trials - 1) / cfg.trials)
            freq = (-np.log1p(-freq) - cfg.lambda_dc) / cfg.mu
        p_hats.append(float(np.clip(freq, 0.0, 1.0)))
    p_hats = np.array(p_hats)
    if vectors.shape[1] == vectors.shape[0]:
        p_hats = p_hats / p_hats.sum()
    return float(np.array([float(w) for w in weights[0]]) @ p_hats)


class TestNoiseConfig:
    def test_defaults(self):
        cfg = NoiseConfig()
        assert cfg.mode == "ideal"
        assert cfg.mu == 0.18

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=-0.1),
            dict(eta=1.1),
            dict(mu=-1.0),
            dict(lambda_dc=-1e-3),
            dict(trials=0),
            dict(mode="banana"),
            # a NaN passes an ordering test and would reach rng.binomial
            dict(mu=np.nan),
            dict(mu=np.inf),
            dict(lambda_dc=np.nan),
            dict(lambda_dc=np.inf),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseConfig(**kwargs)

    @pytest.mark.parametrize("trials", [2.5, 10_000.0, True])
    def test_non_integer_trials_rejected(self, trials):
        # numpy draws from int(trials) pulses; the estimate divides by trials
        with pytest.raises(ValueError, match="trials must be an integer"):
            NoiseConfig(mode="finite_sample", trials=trials)

    def test_numpy_integer_trials_accepted(self):
        assert NoiseConfig(mode="finite_sample", trials=np.int64(200)).trials == 200

    def test_trials_numpy_cannot_draw_rejected(self):
        # numpy's binomial draws 2**63 - 1 trials and overflows at 2**63
        cfg = NoiseConfig(mode="finite_sample", trials=2**63 - 1)
        counts = simulate_counts(
            DensityMatrix(np.eye(2) / 2), projector_modes(SZ), cfg, np.random.default_rng(0)
        )
        assert counts.shape == (2,)
        for trials in (2**63, 10**20):
            with pytest.raises(ValueError, match="trials must be in"):
                NoiseConfig(mode="finite_sample", trials=trials)

    @pytest.mark.parametrize("mode", ["finite_sample", "photon_model"])
    def test_noisy_modes_need_two_trials(self, mode):
        # at one trial every count's variance would read 0, as if exact
        with pytest.raises(ValueError, match="variance needs two trials"):
            NoiseConfig(mode=mode, trials=1)
        cfg = NoiseConfig(mode=mode, trials=2)
        modes = projector_modes(SZ)
        for counts in ([0, 2], [1, 1], [2, 0]):
            assert estimate_one(np.array(counts), modes, cfg)[1] > 0.0
        # ideal data draws no counts
        assert NoiseConfig(mode="ideal", trials=1).trials == 1

    @pytest.mark.parametrize("name", ["eta", "mu", "lambda_dc"])
    @pytest.mark.parametrize("value", ["0.2", None, True, False, np.True_, 0.1 + 0j])
    def test_non_real_rates_rejected(self, name, value):
        # a bool would pass as 0 or 1, a string raise a bare TypeError
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            NoiseConfig(**{name: value})

    def test_numpy_real_rates_accepted(self):
        cfg = NoiseConfig(eta=np.float64(0.1), mu=np.float32(0.5), lambda_dc=np.int64(0))
        assert (cfg.eta, cfg.mu, cfg.lambda_dc) == (0.1, 0.5, 0)

    def test_photon_model_needs_positive_mu(self):
        with pytest.raises(ValueError, match="mu > 0"):
            NoiseConfig(mode="photon_model", mu=0.0)
        # no other mode divides by mu
        assert NoiseConfig(mode="finite_sample", mu=0.0).mu == 0.0


class TestProjectorModes:
    def test_sigma_z(self):
        vectors, weights = projector_modes(SZ)
        assert vectors.shape == (2, 2) and weights.shape == (1, 2)
        assert sorted(weights[0]) == [-1.0, 1.0]
        assert np.allclose(vectors.conj().T @ vectors, np.eye(2), atol=1e-12)

    def test_xx_two_qubit(self):
        vectors, weights = projector_modes(kron_chain(SX, SX))
        assert vectors.shape == (4, 4) and weights.shape == (1, 4)
        assert sorted(weights[0]) == [-1.0, -1.0, 1.0, 1.0]

    def test_sic_element_single_mode(self):
        vectors, weights = projector_modes(sic_povm(1)[0])
        assert vectors.shape == (2, 1) and weights.shape == (1, 1)
        assert weights[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.norm(vectors[:, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_reconstructs_observable(self, rng):
        from conftest import random_hermitian

        h = random_hermitian(8, rng)
        vectors, weights = projector_modes(h)
        total = (vectors * weights) @ vectors.conj().T
        assert np.linalg.norm(total - h) <= 1e-10

    def test_completeness_detection(self):
        # complete modes resolve the identity, so the estimate renormalizes
        # the mode probabilities: doubling every count leaves it unchanged
        cfg = NoiseConfig(trials=1_000, mode="finite_sample")
        for op, complete in (
            (pauli_basis(3)[4], True),
            (sic_povm(1)[0], False),
            # eigenvalues 1, -1, 0, 0: the zero eigenspace is dropped
            (kron_chain((I2 + SZ) / 2, SX), False),
        ):
            modes = projector_modes(op)
            counts = np.arange(1, modes[1].size + 1) * 50
            single = estimate_one(counts, modes, cfg)[0]
            double = estimate_one(2 * counts, modes, cfg)[0]
            assert (modes[0].shape[1] == modes[0].shape[0]) == complete
            assert double == pytest.approx(single if complete else 2 * single, abs=1e-15)


class TestClickProbability:
    def test_dark_free_vacuum(self):
        assert click_probability(0.0, 0.18, 0.0) == 0.0

    def test_mu_018_full_projection(self):
        assert click_probability(1.0, 0.18, 0.0) == pytest.approx(
            1.0 - np.exp(-0.18), abs=1e-12
        )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            click_probability(1.5, 0.18, 0.0)
        with pytest.raises(ValueError):
            click_probability(np.array([0.2, -0.1]), 0.18, 0.0)
        with pytest.raises(ValueError):
            click_probability(np.array([0.2, np.nan]), 0.18, 0.0)
        with pytest.raises(ValueError):
            click_probability(0.5, -0.1, 0.0)

    def test_array_matches_scalars(self):
        p = np.array([0.0, 0.125, 0.5, 1.0])
        out = click_probability(p, 0.18, 2e-4)
        assert out.tolist() == [float(click_probability(x, 0.18, 2e-4)) for x in p]

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.0, 1.0),
        st.floats(0.001, 1.0),
        st.floats(0.0, 0.01),
        st.floats(0.001, 0.2),
    )
    def test_strictly_increasing(self, p, mu, ldc, bump):
        base = click_probability(p, mu, ldc)
        assert click_probability(min(p + bump, 1.0), mu, ldc) >= base
        assert click_probability(p, mu + bump, ldc) >= base
        assert click_probability(p, mu, ldc + bump) > base
        assert 0.0 <= base < 1.0


class TestPhotonStatistics:
    def test_mu_018_pulse_fractions(self):
        # Poisson closed forms are the oracle: P(0) = exp(-mu),
        # P(>=2) = 1 - exp(-mu)(1 + mu)
        rng = np.random.default_rng(123)
        empty, multi = photon_number_statistics(0.18, 100_000, rng)
        assert empty == pytest.approx(np.exp(-0.18), abs=0.01)
        assert multi == pytest.approx(1.0 - np.exp(-0.18) * 1.18, abs=0.005)


class TestSimulateCounts:
    def test_ideal_mode_rejected(self):
        # ideal acquisition takes exact expectations; there are no counts
        with pytest.raises(ValueError, match="ideal"):
            simulate_counts(
                zero_state(), projector_modes(SZ), NoiseConfig(mode="ideal"),
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("mode", ["finite_sample", "photon_model"])
    @pytest.mark.parametrize("trials", [50, 10_000])
    @pytest.mark.parametrize(
        "op, n_modes", [(pauli_basis(3)[27], 8), (sic_povm(3)[5], 1)], ids=["pauli", "sic"]
    )
    def test_stream_matches_per_mode_draws(self, rng, mode, trials, op, n_modes):
        # recorded sweeps depend on the draws consuming the stream one mode
        # at a time, in mode order
        rho = DensityMatrix(random_mixed_state(8, rng))
        cfg = NoiseConfig(mode=mode, trials=trials, mu=0.18, lambda_dc=2e-4)
        modes = projector_modes(op)
        assert modes[1].size == n_modes
        sim_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        counts = simulate_counts(rho, modes, cfg, sim_rng)
        expected = []
        for p in mode_probabilities(rho, modes):
            if mode == "photon_model":
                p = float(click_probability(p, cfg.mu, cfg.lambda_dc))
            expected.append(int(ref_rng.binomial(trials, p)))
        assert counts.dtype.kind == "i"
        assert counts.tolist() == expected
        assert sim_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_dark_counts_on_vacuum_mode(self):
        # mean counts N (1 - exp(-lambda_dc)) for a mode orthogonal to the state
        rng = np.random.default_rng(7)
        cfg = NoiseConfig(trials=10_000, mode="photon_model", mu=0.18, lambda_dc=2e-4)
        modes = projector_modes(SZ)
        minus_mode = int(np.flatnonzero(modes[1] < 0)[0])
        totals = [simulate_counts(zero_state(), modes, cfg, rng)[minus_mode] for _ in range(300)]
        expected = 10_000 * (1.0 - np.exp(-2e-4))
        se = np.sqrt(expected / 300)  # Poisson-ish standard error of the mean
        assert np.mean(totals) == pytest.approx(expected, abs=4 * se)

    def test_binomial_mean(self):
        rng = np.random.default_rng(11)
        cfg = NoiseConfig(trials=100_000, mode="finite_sample")
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        modes = projector_modes(SZ)
        counts = simulate_counts(rho, modes, cfg, rng)
        for c, p in zip(counts, mode_probabilities(rho, modes)):
            se = np.sqrt(p * (1 - p) / cfg.trials)
            assert c / cfg.trials == pytest.approx(p, abs=4 * se)

    def test_requires_rng_for_random_modes(self):
        with pytest.raises(TypeError, match="rng"):
            simulate_counts(zero_state(), projector_modes(SZ), NoiseConfig(mode="finite_sample"))


class TestEstimateExpectations:
    def test_ideal_round_trip(self, rng):
        # exact expected counts, rounded, give back the expectation value
        rho = DensityMatrix(random_mixed_state(8, rng))
        cfg = NoiseConfig(trials=10_000, mode="finite_sample")
        for op in pauli_basis(3)[:5]:
            modes = projector_modes(op)
            counts = np.rint(cfg.trials * np.array(mode_probabilities(rho, modes))).astype(int)
            a_hat = estimate_one(counts, modes, cfg)[0]
            assert a_hat == pytest.approx(expectation(rho, op), abs=1.0 / cfg.trials * counts.size)

    @pytest.mark.parametrize("mode", ["finite_sample", "photon_model"])
    @pytest.mark.parametrize("op", [pauli_basis(3)[13], sic_povm(3)[40]], ids=["pauli", "sic"])
    def test_matches_per_mode_reference(self, rng, mode, op):
        cfg = NoiseConfig(trials=500, mode=mode, mu=0.18, lambda_dc=5e-4)
        rho = DensityMatrix(random_mixed_state(8, rng))
        modes = projector_modes(op)
        for _ in range(20):
            counts = simulate_counts(rho, modes, cfg, rng)
            assert estimate_one(counts, modes, cfg)[0] == reference_estimate(
                counts, modes, cfg
            )

    def test_exact_click_inversion(self):
        # feed exact expected counts; the inversion must recover p exactly
        cfg = NoiseConfig(trials=10**6, mode="photon_model", mu=0.18, lambda_dc=0.0)
        modes = projector_modes(sic_povm(1)[1])
        (p,) = mode_probabilities(zero_state(), modes)
        exact = int(round(cfg.trials * click_probability(p, cfg.mu, cfg.lambda_dc)))
        a_hat = estimate_one(np.array([exact]), modes, cfg)[0]
        assert a_hat == pytest.approx(modes.weights[0, 0] * p, abs=1e-5)

    def test_saturated_mode_clamped(self):
        # every pulse clicked: the frequency is clamped to (trials - 1)/trials
        # before the log, so the estimate is finite and below the eigenvalue
        cfg = NoiseConfig(trials=100, mode="photon_model", mu=5.0, lambda_dc=0.0)
        counts = np.array([100])
        modes = projector_modes(sic_povm(1)[0])
        ((w,),) = modes.weights
        a_hat = estimate_one(counts, modes, cfg)[0]
        assert a_hat == pytest.approx(w * np.log(100.0) / 5.0, rel=1e-12)
        assert a_hat < w
        assert counts.tolist() == [100]

    def test_renormalized_probabilities_sum_to_one(self, rng):
        cfg = NoiseConfig(trials=5_000, mode="photon_model", mu=0.18, lambda_dc=2e-4)
        rho = DensityMatrix(random_mixed_state(8, rng))
        modes = projector_modes(pauli_basis(3)[4])
        counts = simulate_counts(rho, modes, cfg, rng)
        freqs = counts / cfg.trials
        p_hats = np.clip((-np.log1p(-freqs) - cfg.lambda_dc) / cfg.mu, 0.0, 1.0)
        assert abs(p_hats.sum() - 1.0) > 1e-3  # renormalization has work to do
        a_hat = estimate_one(counts, modes, cfg)[0]
        assert a_hat == pytest.approx(modes.weights[0] @ (p_hats / p_hats.sum()), abs=1e-12)

    def test_pauli_estimates_in_range(self, rng):
        cfg = NoiseConfig(trials=500, mode="photon_model", mu=0.18, lambda_dc=5e-4)
        rho = DensityMatrix(random_mixed_state(8, rng))
        for op in pauli_basis(3)[:6]:
            modes = projector_modes(op)
            a_hat = estimate_one(simulate_counts(rho, modes, cfg, rng), modes, cfg)[0]
            assert -1.0 <= a_hat <= 1.0

    def test_sigma_z_on_zero_state_calibration(self):
        # Monte Carlo calibration at the operating point: the inverted
        # estimate should sit in [0.9, 1.0] essentially always
        rng = np.random.default_rng(42)
        cfg = NoiseConfig(trials=10_000, mode="photon_model", mu=0.18, lambda_dc=2e-4)
        rho = zero_state()
        modes = projector_modes(SZ)
        hits = 0
        n_rep = 1000
        for _ in range(n_rep):
            a_hat = estimate_one(simulate_counts(rho, modes, cfg, rng), modes, cfg)[0]
            if 0.9 <= a_hat <= 1.0:
                hits += 1
        assert hits >= 0.99 * n_rep

    def test_large_sample_consistency(self):
        # inversion is unbiased in the large-N limit: error within a few
        # binomial standard errors propagated through the inversion
        rng = np.random.default_rng(3)
        cfg = NoiseConfig(trials=10**6, mode="photon_model", mu=0.18, lambda_dc=1e-4)
        rho = DensityMatrix(np.diag([0.65, 0.35]).astype(complex))
        op = hermitian(SZ, "Z")
        modes = projector_modes(op)
        a_hat = estimate_one(simulate_counts(rho, modes, cfg, rng), modes, cfg)[0]
        # worst-case propagated standard error over the two modes
        q = click_probability(np.array(mode_probabilities(rho, modes)), cfg.mu, cfg.lambda_dc)
        se = np.sqrt(np.sum((np.sqrt(q * (1 - q) / cfg.trials) / (cfg.mu * (1 - q))) ** 2))
        assert abs(a_hat - expectation(rho, op)) <= 3 * se

    @pytest.mark.parametrize("mode", ["finite_sample", "photon_model"])
    @pytest.mark.parametrize(
        "op", [sic_povm(2)[5], pauli_basis(2)[7]], ids=["sic_one_mode", "pauli_renormalized"]
    )
    def test_variance_matches_monte_carlo(self, mode, op):
        # the delta-method variance against the spread of 2,000 estimates;
        # the sample variance itself scatters by about 3% at this size
        rng = np.random.default_rng(20261019)
        rho = DensityMatrix(random_mixed_state(4, rng))
        cfg = NoiseConfig(mode=mode, trials=10_000, mu=0.18, lambda_dc=2e-4)
        modes = projector_modes(op)
        draws = np.array([
            estimate_one(simulate_counts(rho, modes, cfg, rng), modes, cfg)
            for _ in range(2000)
        ])
        assert draws[:, 1].mean() == pytest.approx(draws[:, 0].var(), rel=0.1)

    def test_variance_of_a_saturated_or_empty_mode_is_finite(self):
        # P is clipped to [1/N, (N - 1)/N], so no mode divides by zero
        modes = projector_modes(sic_povm(1)[0])
        for mode in ("finite_sample", "photon_model"):
            cfg = NoiseConfig(mode=mode, trials=100, mu=5.0)
            for counts in ([0], [100]):
                _, variance = estimate_one(np.array(counts), modes, cfg)
                assert 0.0 < variance < np.inf

    def test_record_count_mismatch_rejected(self):
        cfg = NoiseConfig(mode="finite_sample", trials=10)
        for counts in ([], [5], [1, 2, 3], [[1, 2]]):
            with pytest.raises(ValueError, match="expected 2 counts"):
                estimate_expectations(np.array(counts), projector_modes(SZ), cfg)

    @pytest.mark.parametrize("counts", [[-1, 5], [3, 11], [3, np.nan]])
    def test_out_of_range_counts_rejected(self, counts):
        cfg = NoiseConfig(mode="finite_sample", trials=10)
        with pytest.raises(ValueError, match=r"outside \[0, 10\]"):
            estimate_expectations(np.array(counts), projector_modes(SZ), cfg)

    def test_fractional_counts_rejected(self):
        cfg = NoiseConfig(mode="finite_sample", trials=10)
        with pytest.raises(ValueError, match=r"whole numbers, got \[0\.5 1\.5\]"):
            estimate_expectations(np.array([0.5, 1.5]), projector_modes(SZ), cfg)
        with pytest.raises(ValueError, match=r"whole numbers, got \[2\.25\]"):
            estimate_expectations(np.array([3.0, 2.25]), projector_modes(SZ), cfg)
        # whole counts held as floats invert as the integers do
        assert estimate_one(np.array([3.0, 7.0]), projector_modes(SZ), cfg) == estimate_one(
            np.array([3, 7]), projector_modes(SZ), cfg
        )

    def test_raw_frequency_path_is_attenuated(self):
        # the raw click frequency is biased low by roughly the attenuation (a
        # SIC mode with p = 1 clicks on only 1 - exp(-mu) of pulses); the
        # inverted estimate removes the bias
        rng = np.random.default_rng(9)
        modes = projector_modes(sic_povm(1)[0])
        vectors, ((w,),) = modes
        rho = DensityMatrix(vectors @ vectors.conj().T)  # p = 1 for this mode
        cfg = NoiseConfig(trials=200_000, mode="photon_model", mu=0.18)
        counts = simulate_counts(rho, modes, cfg, rng)
        inverted = estimate_one(counts, modes, cfg)[0]
        raw = w * counts[0] / cfg.trials
        assert inverted == pytest.approx(w, abs=0.01)
        assert raw == pytest.approx(w * (1.0 - np.exp(-0.18)), abs=0.01)
        assert raw < inverted / 3


def per_observable_acquisition(rho, op, cfg, rng):
    """One observable's counts, estimate and variance by the formulas the
    estimator applied one observable at a time before acquisition was
    batched: its own probability product, a scalar draw for one mode, and
    its own sums."""
    w, v = np.linalg.eigh(op)
    keep = np.abs(w) > 1e-12
    vectors, weights = v[:, keep], w[keep]
    p = (vectors.conj() * (rho.matrix @ vectors)).sum(axis=0).real.clip(0.0, 1.0)
    if cfg.mode == "photon_model":
        p = 1.0 - np.exp(-cfg.mu * p - cfg.lambda_dc)
    if p.size == 1:
        counts = np.array([rng.binomial(cfg.trials, p[0])])
    else:
        counts = rng.binomial(cfg.trials, p)
    return (counts,) + per_observable_estimate(counts, vectors, weights, cfg)


def per_observable_estimate(counts, vectors, weights, cfg):
    n = cfg.trials
    p_hats = counts / n
    freq = p_hats.clip(1.0 / n, (n - 1) / n)
    if cfg.mode == "photon_model":
        p_vars = freq / (n * cfg.mu**2 * (1.0 - freq))
        p_hats = np.minimum(p_hats, (n - 1) / n)
        p_hats = (-np.log1p(-p_hats) - cfg.lambda_dc) / cfg.mu
    else:
        p_vars = freq * (1.0 - freq) / n
    p_hats = p_hats.clip(0.0, 1.0)
    slopes = weights
    if vectors.shape[1] == vectors.shape[0]:
        total = p_hats.sum()
        if total > 0.0:
            p_hats = p_hats / total
            slopes = (weights - weights @ p_hats) / total
        else:
            p_hats = np.full(weights.size, 1.0 / weights.size)
    return float(weights @ p_hats), float(slopes**2 @ p_vars)


# one-mode SIC products and complete-mode Pauli products
BATCHES = {
    "sic": lambda: list(sic_povm(3)[::5]),
    "pauli": lambda: list(pauli_basis(3)[::5]),
}


class TestBatch:
    @pytest.mark.parametrize("mode", ["finite_sample", "photon_model"])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    @pytest.mark.parametrize("state", ["mixed", "basis"])
    def test_matches_per_observable_formulas(self, rng, mode, batch, state):
        # bit for bit: the counts each observable draws alone, in batch
        # order, from one generator with the same seed, which is left in the
        # same state; and the same estimates and variances. |0...0> puts
        # every Pauli Z-string mode at p = 0 or 1, so finite_sample draws
        # empty and saturated modes
        ops = BATCHES[batch]()
        n = len(ops[0]).bit_length() - 1
        if state == "mixed":
            rho = DensityMatrix(random_mixed_state(2**n, rng))
        else:
            rho = DensityMatrix(np.diag(np.eye(2**n)[0]).astype(complex))
        cfg = NoiseConfig(mode=mode, trials=2_000, mu=0.18, lambda_dc=2e-4)
        modes = stack_modes(projector_modes(op) for op in ops)
        m = 2**n if batch == "pauli" else 1
        assert modes.weights.shape == (len(ops), m)
        assert modes.vectors.shape == (2**n, len(ops) * m)
        batch_rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        counts = simulate_counts(rho, modes, cfg, batch_rng)
        estimates, variances = estimate_expectations(counts, modes, cfg)
        ref = [per_observable_acquisition(rho, op, cfg, ref_rng) for op in ops]
        assert counts.tolist() == np.concatenate([c for c, _, _ in ref]).tolist()
        assert estimates.tolist() == [e for _, e, _ in ref]
        assert variances.tolist() == [v for _, _, v in ref]
        assert batch_rng.bit_generator.state == ref_rng.bit_generator.state
        if state == "basis" and mode == "finite_sample" and batch == "pauli":
            assert {0, cfg.trials} <= set(counts.tolist())

    @pytest.mark.parametrize("mode", ["finite_sample", "photon_model"])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_leading_observables_draw_the_counts_of_their_own_batch(self, rng, mode, batch):
        # a sweep acquires its first max(r) observables once and slices the
        # first k: those k must get the counts a batch of just them draws
        ops = BATCHES[batch]()
        n = len(ops[0]).bit_length() - 1
        rho = DensityMatrix(random_mixed_state(2**n, rng))
        cfg = NoiseConfig(mode=mode, trials=2_000, mu=0.18, lambda_dc=2e-4)
        alone = [projector_modes(op) for op in ops]
        full = simulate_counts(rho, stack_modes(alone), cfg, np.random.default_rng(11))
        for k in range(1, len(ops) + 1):
            lead = stack_modes(alone[:k])
            counts = simulate_counts(rho, lead, cfg, np.random.default_rng(11))
            assert counts.tolist() == full[: counts.size].tolist()
            assert (estimate_expectations(counts, lead, cfg)[0].tolist()
                    == estimate_expectations(full, stack_modes(alone), cfg)[0][:k].tolist())

    @pytest.mark.parametrize("mode", ["finite_sample", "photon_model"])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_empty_and_saturated_counts_invert_per_observable(self, mode, batch):
        # counts of 0 and of every pulse, beside ordinary ones, in every
        # observable: each inverts as it would alone
        ops = BATCHES[batch]()
        cfg = NoiseConfig(mode=mode, trials=100, mu=5.0, lambda_dc=1e-3)
        modes = stack_modes(projector_modes(op) for op in ops)
        pattern = [0, cfg.trials, 37, 0, 100, 5]
        counts = np.resize(pattern, modes.weights.size)
        estimates, variances = estimate_expectations(counts, modes, cfg)
        start = 0
        for b, op in enumerate(ops):
            alone = projector_modes(op)
            own = counts[start : start + alone.weights.size]
            start += alone.weights.size
            want = per_observable_estimate(own, alone.vectors, alone.weights[0], cfg)
            assert (estimates[b], variances[b]) == want
            assert estimate_one(own, alone, cfg) == want
            assert np.isfinite(variances[b])
        # every mode of a complete observable empty: uniform probabilities
        pauli = projector_modes(pauli_basis(2)[5])
        assert estimate_one(np.zeros(4, dtype=int), pauli, cfg) == per_observable_estimate(
            np.zeros(4, dtype=int), pauli.vectors, pauli.weights[0], cfg
        )

    def test_stack_needs_a_batch(self):
        with pytest.raises(ValueError, match="at least one batch"):
            stack_modes([])

    def test_stack_needs_one_mode_count(self):
        pauli, sic = projector_modes(pauli_basis(2)[5]), projector_modes(sic_povm(2)[3])
        with pytest.raises(ValueError, match=r"mode counts \[1, 4\]"):
            stack_modes([pauli, sic])
        # an operator whose zero eigenspace is dropped keeps 2 of its 4 modes
        mixed = [sic_povm(2)[3], pauli_basis(2)[7], hermitian(kron_chain((I2 + SZ) / 2, SX), "P0X"),
                 sic_povm(2)[9], pauli_basis(2)[14]]
        with pytest.raises(ValueError, match=r"mode counts \[1, 2, 4\]"):
            stack_modes(projector_modes(op) for op in mixed)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_canonical_observables_of_a_kind_share_one_mode_count(self, kind, n):
        # what lets a sweep stack any of its canonical observables in one batch
        counts = {projector_modes(op).weights.shape for op in canonical_set(kind, n)}
        assert counts == {(1, 2**n if kind == "pauli" else 1)}
