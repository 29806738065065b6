import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symmaxent.linalg import HermitianOperator
from symmaxent.measurement import (
    MeasurementRecord,
    NoiseConfig,
    click_probability,
    estimate_expectations,
    modes_are_complete,
    photon_number_statistics,
    projector_modes,
    simulate_counts,
)
from symmaxent.observables import expectation, pauli_basis, sic_povm
from symmaxent.states import DensityMatrix

from conftest import SX, SZ, kron_chain, random_mixed_state


def zero_state():
    return DensityMatrix(np.diag([1.0, 0.0]).astype(complex), 1)


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


class TestProjectorModes:
    def test_sigma_z(self):
        modes = projector_modes(SZ)
        assert len(modes) == 2
        eigs = sorted(w for _, w in modes)
        assert eigs == [-1.0, 1.0]
        for proj, _ in modes:
            assert np.allclose(proj @ proj, proj, atol=1e-12)
            assert np.trace(proj).real == pytest.approx(1.0)

    def test_xx_two_qubit(self):
        modes = projector_modes(kron_chain(SX, SX))
        assert len(modes) == 4
        assert sorted(w for _, w in modes) == [-1.0, -1.0, 1.0, 1.0]

    def test_sic_element_single_mode(self):
        e = sic_povm(1)[0]
        modes = projector_modes(e)
        assert len(modes) == 1
        proj, w = modes[0]
        assert w == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(proj @ proj, proj, atol=1e-12)

    def test_reconstructs_observable(self, rng):
        from conftest import random_hermitian

        h = random_hermitian(8, rng)
        modes = projector_modes(h)
        total = sum(w * proj for proj, w in modes)
        assert np.linalg.norm(total - h) <= 1e-10

    def test_completeness_detection(self):
        assert modes_are_complete(projector_modes(SZ), 2)
        assert not modes_are_complete(projector_modes(sic_povm(1)[0].matrix), 2)


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
            click_probability(0.5, -0.1, 0.0)

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
    def test_ideal_round(self):
        modes = projector_modes(SZ)
        cfg = NoiseConfig(trials=10_000, mode="ideal")
        records = simulate_counts(zero_state(), modes, cfg, observable_label="Z")
        by_mode = {rec.mode_index: rec.counts for rec in records}
        # |0> projects fully onto the +1 mode
        plus_mode = [k for k, (_, w) in enumerate(modes) if w > 0][0]
        assert by_mode[plus_mode] == 10_000
        assert by_mode[1 - plus_mode] == 0

    def test_dark_counts_on_vacuum_mode(self):
        # mean counts N (1 - exp(-lambda_dc)) for a mode orthogonal to the state
        rng = np.random.default_rng(7)
        cfg = NoiseConfig(trials=10_000, mode="photon_model", mu=0.18, lambda_dc=2e-4)
        modes = projector_modes(SZ)
        minus_mode = [k for k, (_, w) in enumerate(modes) if w < 0][0]
        totals = []
        for _ in range(300):
            records = simulate_counts(zero_state(), modes, cfg, rng)
            totals.append(records[minus_mode].counts)
        expected = 10_000 * (1.0 - np.exp(-2e-4))
        se = np.sqrt(expected / 300)  # Poisson-ish standard error of the mean
        assert np.mean(totals) == pytest.approx(expected, abs=4 * se)

    def test_binomial_mean(self):
        rng = np.random.default_rng(11)
        cfg = NoiseConfig(trials=100_000, mode="finite_sample")
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex), 1)
        modes = projector_modes(SZ)
        records = simulate_counts(rho, modes, cfg, rng)
        for rec, (proj, _) in zip(records, modes):
            p = np.trace(proj @ rho.matrix).real
            se = np.sqrt(p * (1 - p) / cfg.trials)
            assert rec.counts / cfg.trials == pytest.approx(p, abs=4 * se)

    def test_requires_rng_for_random_modes(self):
        with pytest.raises(ValueError, match="random"):
            simulate_counts(zero_state(), projector_modes(SZ), NoiseConfig(mode="finite_sample"))


class TestEstimateExpectations:
    def test_ideal_round_trip(self, rng):
        rho = DensityMatrix(random_mixed_state(8, rng), 3)
        cfg = NoiseConfig(trials=10_000, mode="ideal")
        for op in pauli_basis(3)[:5]:
            modes = projector_modes(op)
            records = simulate_counts(rho, modes, cfg, observable_label=op.label)
            a_hat = estimate_expectations(records, modes, cfg)
            assert a_hat == pytest.approx(expectation(rho, op), abs=1.0 / cfg.trials * len(modes))

    def test_exact_click_inversion(self):
        # feed exact expected counts; the inversion must recover p exactly
        cfg = NoiseConfig(trials=10**6, mode="photon_model", mu=0.18, lambda_dc=0.0)
        e = sic_povm(1)[1]
        modes = projector_modes(e)
        rho = zero_state()
        proj, w = modes[0]
        p = np.trace(proj @ rho.matrix).real
        exact = int(round(cfg.trials * click_probability(p, cfg.mu, cfg.lambda_dc)))
        records = [MeasurementRecord(e.label, 0, exact, cfg.trials)]
        a_hat = estimate_expectations(records, modes, cfg)
        assert a_hat == pytest.approx(w * p, abs=1e-5)

    def test_saturated_mode_clamped(self):
        # every pulse clicked: the frequency is clamped to (trials - 1)/trials
        # before the log, so the estimate is finite and below the eigenvalue
        cfg = NoiseConfig(trials=100, mode="photon_model", mu=5.0, lambda_dc=0.0)
        records = (MeasurementRecord("E", 0, 100, 100),)
        modes = projector_modes(sic_povm(1)[0])
        (_, w), = modes
        a_hat = estimate_expectations(records, modes, cfg)
        assert a_hat == pytest.approx(w * np.log(100.0) / 5.0, rel=1e-12)
        assert a_hat < w
        assert records == (MeasurementRecord("E", 0, 100, 100),)

    def test_renormalized_probabilities_sum_to_one(self, rng):
        cfg = NoiseConfig(trials=5_000, mode="photon_model", mu=0.18, lambda_dc=2e-4)
        rho = DensityMatrix(random_mixed_state(8, rng), 3)
        op = pauli_basis(3)[4]
        modes = projector_modes(op)
        records = simulate_counts(rho, modes, cfg, rng, op.label)
        freqs = np.array([rec.counts / rec.trials for rec in records])
        p_hats = np.clip((-np.log1p(-freqs) - cfg.lambda_dc) / cfg.mu, 0.0, 1.0)
        assert abs(p_hats.sum() - 1.0) > 1e-3  # renormalization has work to do
        weights = np.array([w for _, w in modes])
        a_hat = estimate_expectations(records, modes, cfg)
        assert a_hat == pytest.approx(weights @ (p_hats / p_hats.sum()), abs=1e-12)

    def test_pauli_estimates_in_range(self, rng):
        cfg = NoiseConfig(trials=500, mode="photon_model", mu=0.18, lambda_dc=5e-4)
        rho = DensityMatrix(random_mixed_state(8, rng), 3)
        for op in pauli_basis(3)[:6]:
            modes = projector_modes(op)
            records = simulate_counts(rho, modes, cfg, rng, op.label)
            a_hat = estimate_expectations(records, modes, cfg)
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
            records = simulate_counts(rho, modes, cfg, rng)
            a_hat = estimate_expectations(records, modes, cfg)
            if 0.9 <= a_hat <= 1.0:
                hits += 1
        assert hits >= 0.99 * n_rep

    def test_large_sample_consistency(self):
        # inversion is unbiased in the large-N limit: error within a few
        # binomial standard errors propagated through the inversion
        rng = np.random.default_rng(3)
        cfg = NoiseConfig(trials=10**6, mode="photon_model", mu=0.18, lambda_dc=1e-4)
        rho = DensityMatrix(np.diag([0.65, 0.35]).astype(complex), 1)
        op = HermitianOperator(SZ, "Z")
        modes = projector_modes(op)
        records = simulate_counts(rho, modes, cfg, rng, "Z")
        a_hat = estimate_expectations(records, modes, cfg)
        # worst-case propagated standard error over the two modes
        se = 0.0
        for proj, _ in modes:
            p = np.trace(proj @ rho.matrix).real
            q = click_probability(p, cfg.mu, cfg.lambda_dc)
            se += (np.sqrt(q * (1 - q) / cfg.trials) / (cfg.mu * (1 - q))) ** 2
        se = np.sqrt(se)
        assert abs(a_hat - expectation(rho, op)) <= 3 * se

    def test_record_count_mismatch_rejected(self):
        cfg = NoiseConfig(mode="ideal")
        with pytest.raises(ValueError, match="records"):
            estimate_expectations([], projector_modes(SZ), cfg)

    def test_raw_frequency_path_is_attenuated(self):
        # the raw click frequency is biased low by roughly the attenuation (a
        # SIC mode with p = 1 clicks on only 1 - exp(-mu) of pulses); the
        # inverted estimate removes the bias
        rng = np.random.default_rng(9)
        e = sic_povm(1)[0]
        modes = projector_modes(e)
        proj, w = modes[0]
        rho = DensityMatrix(proj, 1)  # p = 1 for this mode
        cfg = NoiseConfig(trials=200_000, mode="photon_model", mu=0.18)
        records = simulate_counts(rho, modes, cfg, rng, e.label)
        counts = records[0].counts
        inverted = estimate_expectations(
            [MeasurementRecord(e.label, 0, counts, cfg.trials)], modes, cfg
        )
        raw = w * counts / cfg.trials
        assert inverted == pytest.approx(w, abs=0.01)
        assert raw == pytest.approx(w * (1.0 - np.exp(-0.18)), abs=0.01)
        assert raw < inverted / 3
