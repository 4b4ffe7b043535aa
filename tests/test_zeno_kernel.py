"""The branch-sum kernel behind `zeno_run`, checked against the dense reference.

`dense_reference.dense_zeno_run` simulates the full ancilla|system|environment
register; the production kernel must reproduce it to 1e-12 and keep the
channel invariants: probabilities summing to 1, a trace-preserving Kraus
channel, and a Hermitian positive semidefinite density matrix.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import zenosim.noise
import zenosim.protocol
import zenosim.statevec
from dense_reference import dense_zeno_run
from zenosim.errors import ContractViolation
from zenosim.noise import build_hamiltonian, noise_unitary, pair_unitaries, random_model
from zenosim.pauli import PAULI_MATRICES
from zenosim.protocol import epsilon_sweep, kraus_operators, kraus_step, zeno_run
from zenosim.statevec import hermitian_exp, operator_on_register, random_state
from zenosim.zeno_code import build_code

TOL = 1e-12
CODES = {n: build_code(n) for n in range(1, 6)}
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)

# Hypothesis caches the constants it mines from source files even without an
# example database, at collection time; keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "zenosim-hypothesis")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_unitaries_factor_the_dense_noise(n):
    model = random_model(n, seed=20 + n)
    dense = noise_unitary(model, 0.3).matrix
    product = np.eye(4**n, dtype=complex)
    for i, v in enumerate(pair_unitaries(model, 0.3)):
        product = operator_on_register(v, (i, n + i), 2 * n) @ product
    assert np.abs(product - dense).max() <= TOL


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(PROPERTY_SETTINGS, max_examples=10)
@given(
    model_seed=st.integers(0, 2**16),
    scale=st.floats(0.0, 1.0),
    epsilons=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4),
)
def test_cached_noise_unitary_is_bitwise_the_uncached_one(n, model_seed, scale, epsilons):
    model = random_model(n, model_seed).scaled(scale)
    for eps in epsilons:  # every call after the first reuses the model's eigendecomposition
        fresh = hermitian_exp(build_hamiltonian(model), eps).matrix
        assert np.array_equal(noise_unitary(model, eps).matrix, fresh)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(PROPERTY_SETTINGS, max_examples=10)
@given(
    model_seed=st.integers(0, 2**16),
    scale=st.floats(0.0, 1.0),
    epsilons=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
)
def test_noise_unitary_is_unitary_without_a_per_call_check(n, model_seed, scale, epsilons):
    model = random_model(n, model_seed).scaled(scale)
    for eps in epsilons:
        u = noise_unitary(model, eps).matrix
        assert np.abs(u.conj().T @ u - np.eye(4**n)).max() <= TOL
        width = max(2**n, 4)
        fresh = noise_unitary(model, eps, fresh_environment=True).matrix[:, :width]
        assert np.abs(fresh.conj().T @ fresh - np.eye(width)).max() <= TOL


@pytest.mark.parametrize("policy", ["reset", "persist"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(PROPERTY_SETTINGS, max_examples=4)
@given(
    model_seed=st.integers(0, 2**16),
    psi_seed=st.integers(0, 2**16),
    cycles=st.integers(1, 8),
    total_epsilon=st.floats(0.0, 0.6),
    rng_seed=st.integers(0, 2**16),
)
def test_zeno_run_matches_dense_reference(n, policy, model_seed, psi_seed, cycles, total_epsilon, rng_seed):
    args = (CODES[n], random_model(n, model_seed), total_epsilon, cycles, policy, rng_seed, random_state(n, psi_seed))
    fast, dense = zeno_run(*args), dense_zeno_run(*args)
    for field in ("cumulative_success", "cumulative_failure", "final_conditional_fidelity"):
        assert abs(getattr(fast, field) - getattr(dense, field)) <= TOL, field
    for got, want in zip(fast.per_cycle, dense.per_cycle, strict=True):
        assert abs(sum(got.syndrome_probabilities) - 1.0) <= TOL
        assert np.abs(np.subtract(got.syndrome_probabilities, want.syndrome_probabilities)).max() <= TOL
        assert abs(got.success_probability - want.success_probability) <= TOL
        assert abs(got.failure_probability - want.failure_probability) <= TOL
        assert abs(got.conditional_fidelity - want.conditional_fidelity) <= TOL
        assert got.sampled_syndrome == want.sampled_syndrome


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(PROPERTY_SETTINGS, max_examples=10)
@given(
    model_seed=st.integers(0, 2**16),
    psi_seed=st.integers(0, 2**16),
    cycles=st.integers(1, 8),
    epsilon=st.floats(0.0, 0.6),
)
def test_kraus_channel_preserves_trace_and_positivity(n, model_seed, psi_seed, cycles, epsilon):
    kraus = kraus_operators(CODES[n], random_model(n, model_seed), epsilon)
    dim = 2**n
    completeness = np.einsum("besk,besl->kl", kraus.conj(), kraus)
    assert np.abs(completeness - np.eye(dim)).max() <= TOL
    psi = random_state(n, psi_seed).amplitudes
    rho = np.outer(psi, psi.conj())
    for _ in range(cycles):
        probs, rho = kraus_step(kraus, rho)
        assert abs(probs.sum() - 1.0) <= TOL
        assert np.abs(rho - rho.conj().T).max() <= TOL
        assert abs(np.trace(rho) - 1.0) <= TOL
        assert np.linalg.eigvalsh(rho).min() >= -TOL


def _counting(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


@pytest.mark.parametrize("policy", ["reset", "persist"])
def test_zeno_run_builds_no_dense_noise(monkeypatch, policy):
    calls = []
    _counting(monkeypatch, zenosim.protocol, "noise_unitary", calls)
    _counting(monkeypatch, zenosim.statevec, "hermitian_exp", calls)
    _counting(monkeypatch, zenosim.noise, "hermitian_exp", calls)
    run = zeno_run(CODES[3], random_model(3, 1), 0.2, 4, policy, 0, random_state(3, 2))
    assert run.cycles == 4
    assert calls == []


def test_sweep_forms_only_the_fresh_environment_columns(monkeypatch):
    real, widths = zenosim.noise.hermitian_exp, []

    def spy(op, t, columns=None):
        widths.append(columns)
        return real(op, t, columns)

    monkeypatch.setattr(zenosim.noise, "hermitian_exp", spy)
    table = epsilon_sweep(CODES[3], random_model(3, 4), np.geomspace(1e-3, 1e-1, 16))
    assert len(table.rows) == 16
    assert widths == [8] * 16


@pytest.mark.parametrize("policy", ["reset", "persist"])
def test_vanishing_no_error_branch_is_a_contract_violation(monkeypatch, policy):
    # V = i X on the system: every encoder branch is +-iX and the no-error sum cancels exactly
    flip = 1j * np.kron(np.eye(2), PAULI_MATRICES[1])
    monkeypatch.setattr(zenosim.protocol, "pair_unitaries", lambda model, epsilon: flip[None])
    with pytest.raises(ContractViolation, match="zero weight"):
        zeno_run(CODES[1], random_model(1, 0), 0.1, 1, policy)


def test_five_qubit_reset_run_suppresses_failure():
    model = random_model(5, seed=3)
    psi = random_state(5, 4)
    failures = []
    for k in (1, 2, 4, 8):
        run = zeno_run(CODES[5], model, 0.2, k, "reset", 0, psi)
        for cycle in run.per_cycle:
            for p in (*cycle.syndrome_probabilities, cycle.conditional_fidelity):
                assert 0.0 <= p <= 1.0
        failures.append(run.cumulative_failure)
    assert all(later < earlier for earlier, later in zip(failures, failures[1:]))
    assert 0.0 < failures[-1] < failures[0] < 1.0
