import numpy as np
import pytest

import zenosim.protocol
import zenosim.statevec
from zenosim.errors import ContractViolation
from zenosim.fitting import fit_power_law
from zenosim.noise import NoiseModel, noise_unitary, random_model, zero_model
from zenosim.protocol import epsilon_sweep, single_cycle, zeno_run
from zenosim.statevec import StateVector, basis_state, random_state
from zenosim.zeno_code import build_code

EPS_GRID = np.geomspace(1e-3, 3e-2, 8)


@pytest.fixture(scope="module")
def code1():
    return build_code(1)


@pytest.fixture(scope="module")
def code2():
    return build_code(2)


@pytest.fixture(scope="module")
def model1():
    return random_model(1, seed=7)


@pytest.fixture(scope="module")
def model2():
    return random_model(2, seed=7)


def test_noiseless_cycle_is_perfect(code1, model1):
    res = single_cycle(code1, model1, basis_state(1), rng_seed=0, epsilon=0.0)
    assert res.success_probability == pytest.approx(1.0, abs=1e-12)
    assert res.conditional_fidelity == pytest.approx(1.0, abs=1e-12)
    assert res.failure_probability == pytest.approx(0.0, abs=1e-12)
    assert res.sampled_syndrome == 0


def test_cycle_rejects_mismatched_model(code1, model2):
    with pytest.raises(ContractViolation):
        single_cycle(code1, model2, basis_state(1), rng_seed=0, epsilon=1e-2)


def test_success_probability_closes_the_syndrome_distribution(code2, model2):
    res = single_cycle(code2, model2, random_state(2, 4), rng_seed=0, epsilon=2e-2)
    probs = np.array(res.syndrome_probabilities)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert res.success_probability == pytest.approx(1.0 - probs[1:].sum(), abs=1e-12)


def test_cycle_statistics_are_seed_independent(code1, model1):
    a = single_cycle(code1, model1, basis_state(1), rng_seed=1, epsilon=1e-2)
    b = single_cycle(code1, model1, basis_state(1), rng_seed=99, epsilon=1e-2)
    assert a.success_probability == b.success_probability
    assert a.conditional_fidelity == b.conditional_fidelity


def test_failure_probability_is_quadratic(code1, model1):
    fails = [
        single_cycle(code1, model1, basis_state(1), 0, epsilon=float(e)).failure_probability
        for e in EPS_GRID
    ]
    fit = fit_power_law(EPS_GRID, fails)
    assert fit is not None
    assert 1.95 <= fit.slope <= 2.05


def test_single_system_state_is_exactly_preserved_on_success(code1, model1):
    # with one protected qubit the conditioned cycle touches only the
    # environment, so the postselected fidelity deficit sits at zero
    for e in (1e-3, 1e-2, 5e-2):
        res = single_cycle(code1, model1, random_state(1, 8), 0, epsilon=e)
        assert abs(1.0 - res.conditional_fidelity) < 1e-12


def test_two_system_infidelity_is_quartic(code2, model2):
    psi = random_state(2, 3)
    infids = [
        1.0 - single_cycle(code2, model2, psi, 0, epsilon=float(e)).conditional_fidelity
        for e in EPS_GRID
    ]
    fit = fit_power_law(EPS_GRID, infids)
    assert fit is not None
    assert fit.slope == pytest.approx(4.0, abs=0.2)


def test_joint_success_and_fidelity_deficit_is_quadratic(code2, model2):
    # probability of (no error flagged AND system found unchanged)
    psi = random_state(2, 3)
    deficits = []
    for e in EPS_GRID:
        res = single_cycle(code2, model2, psi, 0, epsilon=float(e))
        deficits.append(1.0 - res.success_probability * res.conditional_fidelity)
    fit = fit_power_law(EPS_GRID, deficits)
    assert fit is not None
    assert fit.slope == pytest.approx(2.0, abs=0.1)


def test_zeno_run_validates_arguments(code1, model1):
    with pytest.raises(ContractViolation):
        zeno_run(code1, model1, 0.05, 0)
    with pytest.raises(ContractViolation):
        zeno_run(code1, model1, 0.05, 2, env_policy="bounce")
    for policy in ("reset", "persist"):
        with pytest.raises(ContractViolation, match="qubits"):
            zeno_run(code1, model1, 0.05, 2, policy, psi=basis_state(2))
        with pytest.raises(ContractViolation, match="normalized"):
            zeno_run(code1, model1, 0.05, 2, policy, psi=StateVector(np.array([1.0, 1.0])))
        with pytest.raises(ContractViolation, match="normalized"):
            zeno_run(code1, model1, 0.05, 2, policy, psi=StateVector(np.array([np.nan, 0.0])))
        for total in (np.inf, -np.inf, np.nan):
            with pytest.raises(ContractViolation, match="noise strength must be finite"):
                zeno_run(code1, model1, total, 2, policy)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_single_cycle_rejects_non_finite_strength(code1, model1, eps):
    with pytest.raises(ContractViolation, match="noise strength must be finite"):
        single_cycle(code1, model1, basis_state(1), 0, epsilon=eps)


def test_single_cycle_checks_the_evolved_norm(code2, model2, monkeypatch):
    def leaky(model, epsilon):
        return noise_unitary(model, epsilon) * (1 + 1e-10)

    monkeypatch.setattr(zenosim.protocol, "noise_unitary", leaky)
    with pytest.raises(ContractViolation, match="norm"):
        single_cycle(code2, model2, basis_state(2), 0, epsilon=0.01)


@pytest.mark.parametrize("policy", ["reset", "persist"])
def test_single_cycle_run_reduces_to_single_cycle(code1, model1, policy):
    run = zeno_run(code1, model1, 0.03, 1, env_policy=policy, rng_seed=5)
    cycle = single_cycle(code1, model1, basis_state(1), 5, epsilon=0.03)
    assert run.cumulative_success == pytest.approx(cycle.success_probability, abs=1e-13)
    assert run.final_conditional_fidelity == pytest.approx(cycle.conditional_fidelity, abs=1e-13)
    assert run.cycles == 1 and run.epsilon_per_cycle == 0.03


def test_zero_strength_run_always_succeeds(code1, model1):
    run = zeno_run(code1, model1, 0.0, 5, rng_seed=0)
    assert run.cumulative_success == pytest.approx(1.0, abs=1e-12)
    assert all(c.sampled_syndrome == 0 for c in run.per_cycle)


def test_more_frequent_measurement_halves_failure(code1, model1):
    failures = {}
    for k in (1, 2, 4, 8, 16):
        failures[k] = zeno_run(code1, model1, 0.05, k, rng_seed=0).cumulative_failure
    for k in (1, 2, 4, 8):
        ratio = failures[k] / failures[2 * k]
        assert ratio == pytest.approx(2.0, rel=0.1)


def test_doubling_cycles_never_hurts(code1, model1, code2, model2):
    for code, model in ((code1, model1), (code2, model2)):
        psi = random_state(code.n, 9)
        previous = zeno_run(code, model, 0.1, 1, rng_seed=0, psi=psi).cumulative_failure
        for k in (2, 4, 8):
            current = zeno_run(code, model, 0.1, k, rng_seed=0, psi=psi).cumulative_failure
            assert current <= previous + 1e-15
            previous = current


@pytest.mark.parametrize("policy", ["reset", "persist"])
def test_cumulative_failure_is_1_when_the_no_error_branch_nearly_vanishes(code1, policy):
    # letter x coupled to the identity: at eps = pi/2 the noise is i X up to cos(pi/2) ~ 6e-17,
    # so p_0 ~ 4e-33 and p_1 + p_2 + p_3 sits within rounding of 1
    couplings = np.zeros((1, 4, 2, 2), dtype=complex)
    couplings[0, 1] = np.eye(2)
    run = zeno_run(code1, NoiseModel(1, couplings), np.pi / 2, 1, policy)
    assert 0.0 < run.cumulative_success < 1e-30
    assert run.cumulative_failure == 1.0


def test_cumulative_success_bounded_by_worst_cycle(code2, model2):
    run = zeno_run(code2, model2, 0.2, 6, rng_seed=1, psi=random_state(2, 2))
    worst = min(c.success_probability for c in run.per_cycle)
    assert run.cumulative_success <= worst + 1e-15


def test_persist_policy_keeps_a_memoryful_environment(code1, model1):
    reset = zeno_run(code1, model1, 0.08, 8, env_policy="reset", rng_seed=0)
    persist = zeno_run(code1, model1, 0.08, 8, env_policy="persist", rng_seed=0)
    for run in (reset, persist):
        assert 0.0 <= run.cumulative_failure <= 1.0
    # the two policies are genuinely different dynamics
    assert reset.cumulative_failure != pytest.approx(persist.cumulative_failure, rel=1e-6)


def test_zeno_run_is_reproducible(code1, model1):
    a = zeno_run(code1, model1, 0.05, 4, rng_seed=3)
    b = zeno_run(code1, model1, 0.05, 4, rng_seed=3)
    assert a == b


def test_sweep_rejects_bad_grids(code1, model1):
    with pytest.raises(ContractViolation):
        epsilon_sweep(code1, model1, [1e-3, 2e-3, 4e-3])
    with pytest.raises(ContractViolation):
        epsilon_sweep(code1, model1, [1e-3, 2e-3, 4e-3, 8e-3])
    with pytest.raises(ContractViolation):
        epsilon_sweep(code1, model1, [-1e-3, 1e-2, 2e-2, 1e-1])
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractViolation, match="finite and positive"):
            epsilon_sweep(code1, model1, [1e-3, 1e-2, 1e-1, bad])
    with pytest.raises(ContractViolation):
        epsilon_sweep(code1, model1, list(EPS_GRID), observable="entropy")


def test_sweep_decomposes_the_hamiltonian_once_per_model(monkeypatch):
    calls = []
    real = np.linalg.eigh

    def spy(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    code, model = build_code(3), random_model(3, seed=5)
    grid = np.geomspace(1e-3, 1e-1, 16)
    first = epsilon_sweep(code, model, grid)
    assert calls == [(64, 64)]
    second = epsilon_sweep(code, model, grid)
    assert calls == [(64, 64)]
    assert first == second
    epsilon_sweep(code, model.scaled(0.5), grid)  # a new model decomposes its own H
    assert calls == [(64, 64)] * 2


def test_sweep_checks_the_eigenbasis_once_and_no_unitary(monkeypatch):
    checked = []
    real = zenosim.statevec._check_orthonormal

    def spy(vectors, what):
        checked.append((vectors.shape, what))
        return real(vectors, what)

    code, model = build_code(3), random_model(3, seed=5)
    monkeypatch.setattr(zenosim.statevec, "_check_orthonormal", spy)
    epsilon_sweep(code, model, np.geomspace(1e-3, 1e-1, 16))
    # the 4x4 syndrome basis is checked per point; every 4^n-sized check runs once
    assert [c for c in checked if c[0] != (4, 4)] == [((64, 64), "eigenbasis")]


def test_sweep_of_noiseless_model_reports_floor(code1):
    table = epsilon_sweep(code1, zero_model(1), list(EPS_GRID))
    assert table.status == "floor"
    assert table.fit is None
    assert all(r.failure_probability <= 1e-13 for r in table.rows)


def test_sweep_from_seed_fits_quadratic_failure(code1, model1):
    table = epsilon_sweep(code1, model1, list(EPS_GRID))
    assert table.status == "ok"
    assert 1.95 <= table.fit.slope <= 2.05


def test_doubling_coupling_norms_quadruples_failure(code1):
    base = random_model(1, seed=19).scaled(0.5)
    doubled = base.scaled(2.0)
    eps = 1e-3
    psi = basis_state(1)
    weak = single_cycle(code1, base, psi, 0, epsilon=eps).failure_probability
    strong = single_cycle(code1, doubled, psi, 0, epsilon=eps).failure_probability
    assert strong / weak == pytest.approx(4.0, rel=0.05)


def test_scaling_guard_rejects_oversized_couplings():
    with pytest.raises(ContractViolation):
        random_model(1, seed=19).scaled(2.0)
