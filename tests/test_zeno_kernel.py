"""The branch-sum kernel behind `zeno_run`, checked against the dense reference.

`dense_reference.dense_zeno_run` simulates the full ancilla|system|environment
register; the production kernel must reproduce it to 1e-12 and keep the
channel invariants: probabilities summing to 1, syndrome effects summing to
the identity, and a Hermitian positive semidefinite density matrix.  Past the
dense reference's reach (n = 5, 6) the persist kernel is checked against the
per-pair 7-index einsum it replaced, kept here as `einsum_persist_run`, and
past the cap (n = 7..10) both policies' first cycle from |0...0> against
`dense_reference.product_input_first_cycle`, which forms no state vector.
`single_cycle`, the sweep's kernel, is checked against a one-cycle dense run:
bit for bit for basis states, to rounding for random ones; and bit for bit,
for every state, against `dense_reference.register_single_cycle`, its
register-state-vector body fed the whole U's leading columns.
"""

import functools
import itertools
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import zenosim.noise
import zenosim.protocol
import zenosim.statevec
import zenosim.zeno_code
from dense_reference import dense_zeno_run, pair_unitaries, product_input_first_cycle, register_single_cycle
from zenosim.cli import main
from zenosim.errors import ContractViolation
from zenosim.noise import (
    NoiseModel,
    noise_unitary,
    pair_deviations,
    random_model,
    zero_model,
)
from zenosim.pauli import PAULI_MATRICES, SYNDROME_BASIS, conjugation_sign
from zenosim.protocol import (
    _fresh_transfers,
    _letter_amplitudes,
    _pair_transfers,
    _reset_channel,
    _reset_step,
    _syndrome_effects,
    epsilon_sweep,
    single_cycle,
    zeno_run,
)
from zenosim.statevec import basis_state, hermitian_exp, operator_on_register, random_state
from zenosim.zeno_code import build_code

TOL = 1e-12
SWEEP_STRENGTHS = (1e-3, 1e-2, 3e-2, 0.3)
CODES = {n: build_code(n) for n in range(1, 6)}
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)

# Hypothesis caches the constants it mines from source files even without an
# example database, at collection time; keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "zenosim-hypothesis")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pair_unitaries_factor_the_dense_noise(n):
    model = random_model(n, seed=20 + n)
    dense = hermitian_exp(model.hamiltonian, 0.3).matrix
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
        uncached = noise_unitary(NoiseModel(model.n, model.couplings), eps)  # empty caches
        assert np.array_equal(noise_unitary(model, eps), uncached)


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
        u = hermitian_exp(model.hamiltonian, eps).matrix
        assert np.abs(u.conj().T @ u - np.eye(4**n)).max() <= TOL
        width = max(2**n, 4)
        fresh = noise_unitary(model, eps)
        assert fresh.shape == (4**n, width)
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
    model = random_model(n, model_seed)
    completeness = _syndrome_effects(_fresh_transfers(model, epsilon)).sum(axis=0)
    assert np.abs(completeness - np.eye(2**n)).max() <= TOL
    channel = _reset_channel(model, epsilon)
    psi = random_state(n, psi_seed).amplitudes
    rho = np.outer(psi, psi.conj())
    for _ in range(cycles):
        probs, rho = _reset_step(channel, rho)
        assert abs(probs.sum() - 1.0) <= TOL
        assert np.abs(rho - rho.conj().T).max() <= TOL
        assert abs(np.trace(rho) - 1.0) <= TOL
        assert np.linalg.eigvalsh(rho).min() >= -TOL


def _kraus_table(letters: np.ndarray) -> np.ndarray:
    """[i, k, s, e, t, j] = letters[i, e, k ^ j] sigma_(k ^ j)[s, t], gathered through an index table."""
    ket, s, env, t, ket_from = np.indices((4, 2, 2, 2, 4))
    letter = ket ^ ket_from
    return np.take(letters.reshape(-1, 8), 4 * env + letter, axis=1) * np.stack(PAULI_MATRICES)[letter, s, t]


def _effect_table(letters: np.ndarray) -> np.ndarray:
    """[i, (k', k), s, t, (j', j)] = gram[i, k' ^ j', k ^ j] (sigma_(k' ^ j')^dagger sigma_(k ^ j))[s, t]."""
    bra, ket, s, t, bra_from, ket_from = np.indices((4, 4, 2, 2, 4, 4))
    bra_letter, ket_letter = bra ^ bra_from, ket ^ ket_from
    paulis = np.stack(PAULI_MATRICES)
    products = (paulis.conj().swapaxes(-1, -2)[:, None] @ paulis)[bra_letter, ket_letter, s, t]
    gram = letters.conj().swapaxes(-1, -2) @ letters  # [i, c', c]
    return (np.take(gram.reshape(-1, 16), 4 * bra_letter + ket_letter, axis=1) * products).reshape(-1, 16, 2, 2, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_reset_recursions_read_the_fresh_pair_transfer_bit_for_bit(monkeypatch, n):
    # the effect and Kraus recursions read the e = 0 slice of the transfer persist reads whole, and its Gram
    read, real = [], zenosim.protocol._class_sums

    def spy(transfer, keep):
        read.append(transfer)
        return real(transfer, keep)

    monkeypatch.setattr(zenosim.protocol, "_class_sums", spy)
    for seed, epsilon in itertools.product(range(10), (1e-8, 1e-3, 0.05, 0.3, 2)):
        model = random_model(n, seed)
        letters = _letter_amplitudes(model, epsilon)[:, :, 0]
        fresh = _pair_transfers(model, epsilon).reshape(n, 4, 2, 2, 4, 2, 2)[..., 0, :]  # [i, k, e', s', j, s]
        assert np.array_equal(fresh.transpose(0, 1, 3, 2, 5, 4), _kraus_table(letters)), (seed, epsilon)
        read.clear()
        _reset_channel(model, epsilon)
        effect_transfer, kraus_transfer = read
        assert np.array_equal(effect_transfer, _effect_table(letters)), (seed, epsilon)
        assert np.array_equal(kraus_transfer, _kraus_table(letters)), (seed, epsilon)


def test_branch_b_keeps_the_pauli_strings_whose_letters_xor_to_b():
    # both zeno kernels group strings by the XOR of their letters; the encoder's signs pick the class
    signs = np.array([[conjugation_sign(a, c) for c in range(4)] for a in range(4)])
    for c, d in np.ndindex(4, 4):
        assert (signs[:, c] * signs[:, d] == signs[:, c ^ d]).all()
    assert np.array_equal(SYNDROME_BASIS.T.real / 2 @ signs, np.eye(4))


@pytest.mark.parametrize("defect", ["a phase of modulus 1/2", "two entries in a row"])
def test_a_pair_that_is_not_unitary_fails_the_reset_effects_check(monkeypatch, defect):
    def bad_deviations(model, epsilon):
        if defect == "two entries in a row":
            deviation = pair_deviations(model, epsilon)
            deviation[:, 1, 0] += 1.0
            return deviation
        w, v = model.pair_eigh
        phases = np.exp(1j * epsilon * w)
        phases[:, 0] *= 0.5
        return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2) - np.eye(4)

    monkeypatch.setattr(zenosim.protocol, "pair_deviations", bad_deviations)
    with pytest.raises(ContractViolation, match="syndrome effects miss the identity"):
        zeno_run(CODES[2], random_model(2, seed=1), 1e-2, 2, "reset")


def _single_letter_model(n: int, letter: int) -> NoiseModel:
    couplings = np.zeros((n, 4, 2, 2), dtype=complex)
    couplings[:, letter] = random_model(n, seed=5).couplings[:, letter]
    return NoiseModel(n, couplings)


@pytest.mark.parametrize("policy", ["reset", "persist"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_error_probabilities_are_not_negative_near_zero_strength(n, policy):
    models = [zero_model(n), *(_single_letter_model(n, letter) for letter in range(4))]
    epsilons, states = (5e-324, 1e-300, 1e-160, 1e-8), (basis_state(n), random_state(n, 3))
    for model, epsilon, psi in itertools.product(models, epsilons, states):
        for cycles in (1, 4):
            for cycle in zeno_run(build_code(n), model, epsilon, cycles, policy, 0, psi).per_cycle:
                assert min(cycle.syndrome_probabilities[1:]) >= 0.0, (model.couplings, epsilon)


@pytest.mark.parametrize("n", [5, 6])
def test_reset_run_holds_no_array_of_four_kraus_tensors(n):
    code, model, psi = build_code(n), random_model(n, 1), random_state(n, 2)
    zeno_run(code, model, 0.2, 1, "reset", 0, psi)  # the model's pair eigenbases
    tracemalloc.start()
    try:
        zeno_run(code, model, 0.2, 4, "reset", 0, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8**n * np.dtype(complex).itemsize


@pytest.mark.parametrize("n", range(7, 10))
@pytest.mark.parametrize("epsilon", [0.1, 0.03])
def test_reset_first_cycle_matches_the_product_input_reference_past_the_cap(monkeypatch, n, epsilon):
    monkeypatch.setattr(zenosim.zeno_code, "MAX_SYSTEM_QUBITS", 10)
    model = random_model(n, seed=n)
    if n == 7:
        probs = zeno_run(build_code(n), model, epsilon, 1).per_cycle[0].syndrome_probabilities
    else:  # the effects alone: p_b = <0...0|G_b|0...0>
        probs = _syndrome_effects(_fresh_transfers(model, epsilon))[:, 0, 0].real
    np.testing.assert_allclose(probs, product_input_first_cycle(model, epsilon)[0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_persist_first_cycle_failure_matches_reset_in_the_zeno_regime(n):
    # a fresh environment makes the first cycles equal; both keep a small letter in every b > 0 term
    model = random_model(n, seed=3)
    for psi, epsilon in itertools.product((basis_state(n), random_state(n, 4)), np.geomspace(0.3, 1e-8, 9)):
        persist, reset = (zeno_run(CODES[n], model, epsilon, 1, policy, 0, psi).cumulative_failure
                          for policy in ("persist", "reset"))
        assert abs(persist - reset) <= 1e-14 * reset, (epsilon, persist, reset)


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
    real, shapes = zenosim.protocol.noise_unitary, []

    def spy(model, epsilon):
        columns = real(model, epsilon)
        shapes.append(columns.shape)
        return columns

    monkeypatch.setattr(zenosim.protocol, "noise_unitary", spy)
    table = epsilon_sweep(CODES[3], random_model(3, 4), np.geomspace(1e-3, 1e-1, 16))
    assert len(table.rows) == 16
    assert shapes == [(64, 8)] * 16


@pytest.fixture(scope="module")
def sweep_model():
    """random_model kept per (n, seed) for this module, so the n = 5 dense reference diagonalizes H once."""
    return functools.cache(random_model)


def _dense_cycle(n, model, psi, epsilon):
    """One cycle on the whole register: the dense encoder and the whole U, through `apply`."""
    return dense_zeno_run(CODES[n], model, epsilon, 1, "persist", 0, psi).per_cycle[0]


@pytest.mark.parametrize("model_seed", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_single_cycle_of_a_basis_state_is_the_dense_register_bit_for_bit(sweep_model, n, model_seed):
    model = sweep_model(n, model_seed)
    for psi, epsilon in itertools.product((basis_state(n), basis_state(n, 2**n - 1)), SWEEP_STRENGTHS):
        assert single_cycle(CODES[n], model, psi, 0, epsilon) == _dense_cycle(n, model, psi, epsilon)


@pytest.mark.parametrize("model_seed", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_single_cycle_of_a_random_state_matches_the_dense_register(sweep_model, n, model_seed):
    model = sweep_model(n, model_seed)
    for psi_seed, epsilon in itertools.product((0, 7), SWEEP_STRENGTHS):
        psi = random_state(n, psi_seed)
        fast, dense = single_cycle(CODES[n], model, psi, 0, epsilon), _dense_cycle(n, model, psi, epsilon)
        np.testing.assert_allclose(fast.syndrome_probabilities, dense.syndrome_probabilities, rtol=0, atol=1e-15)
        assert abs(fast.failure_probability - dense.failure_probability) <= 1e-10 * dense.failure_probability
        assert abs(fast.conditional_fidelity - dense.conditional_fidelity) <= TOL


def _bits(cycle):
    """The bit pattern of every float of a `CycleResult`, and its sampled syndrome."""
    floats = (cycle.success_probability, cycle.conditional_fidelity, cycle.failure_probability)
    return np.array(floats + cycle.syndrome_probabilities).view(np.uint64).tolist(), cycle.sampled_syndrome


@pytest.mark.parametrize("model_seed", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_single_cycle_is_the_register_cycle_bit_for_bit(sweep_model, n, model_seed):
    model = sweep_model(n, model_seed)
    states = (basis_state(n), basis_state(n, 2**n - 1), random_state(n, 0), random_state(n, 7))
    for epsilon in SWEEP_STRENGTHS:
        columns = hermitian_exp(model.hamiltonian, epsilon).matrix[:, : max(2**n, 4)]
        for index, psi in enumerate(states):
            fast = single_cycle(CODES[n], model, psi, 0, epsilon)
            assert _bits(fast) == _bits(register_single_cycle(CODES[n], psi, columns, 0)), (epsilon, index)


def test_a_warm_single_cycle_allocates_less_than_a_square_noise_matrix_and_a_quarter(sweep_model):
    n = 5
    code, model, psi = CODES[n], sweep_model(n, 0), random_state(n, 1)
    single_cycle(code, model, psi, 0, 0.01)  # the model's eigendecomposition
    tracemalloc.start()
    try:
        single_cycle(code, model, psi, 0, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16**n * np.dtype(complex).itemsize


def test_single_cycle_forms_one_noise_unitary_and_applies_no_dense_operator(monkeypatch):
    calls = []
    _counting(monkeypatch, zenosim.protocol, "noise_unitary", calls)
    _counting(monkeypatch, zenosim.statevec, "apply", calls)
    assert not hasattr(zenosim.protocol, "apply")  # a by-name import would bypass the spy
    single_cycle(CODES[3], random_model(3, 4), random_state(3, 1), 0, 0.02)
    assert calls == ["noise_unitary"]


@pytest.mark.parametrize("policy", ["reset", "persist"])
def test_vanishing_no_error_branch_is_a_contract_violation(monkeypatch, policy):
    # V = i X on the system: every encoder branch is +-iX and the no-error sum cancels exactly
    flip = 1j * np.kron(np.eye(2), PAULI_MATRICES[1])
    monkeypatch.setattr(zenosim.protocol, "pair_deviations", lambda model, epsilon: flip[None] - np.eye(4))
    with pytest.raises(ContractViolation, match="zero weight"):
        zeno_run(CODES[1], random_model(1, 0), 0.1, 1, policy)


def test_persist_fidelity_does_not_exceed_one(tmp_path):
    # n = 1 keeps the exact fidelity at 1, where <psi|rho|psi> read one ulp above it
    out = tmp_path / "run.json"
    argv = ["zeno", "--n", "1", "--seed", "7", "--psi", "random-seeded", "--psi-seed", "7", "--total-eps", "0.2",
            "--k", "1,2,4", "--env-policy", "persist", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.read_text())["rows"]
    fidelities = [cycle["conditional_fidelity"] for row in rows for cycle in row["per_cycle"]]
    fidelities += [row["final_conditional_fidelity"] for row in rows]
    assert len(fidelities) == 10 and max(fidelities) <= 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_persist_fidelity_without_noise_is_one(n):
    for psi in (basis_state(n), random_state(n, 8)):
        run = zeno_run(CODES[n], zero_model(n), 0.3, 4, "persist", 0, psi)
        assert [cycle.conditional_fidelity for cycle in run.per_cycle] == [1.0] * 4


def einsum_persist_run(code, model, total_epsilon, cycles, psi):
    """Per-cycle (syndrome probabilities, fidelity) of a persist run, one 7-index einsum per pair.

    The joint state is [environment, system] with qubit i on bit i of each
    index, so pair i's bits are split out of the middle of both axes.
    """
    n = code.n
    dim = 2**n
    flips = np.stack([np.kron(np.eye(2), p) for p in PAULI_MATRICES])[:, None]  # sigma_a on the system bit
    factors = (flips @ pair_unitaries(model, total_epsilon / cycles)[None] @ flips).reshape(4, n, 2, 2, 2, 2)
    signs = np.array([[conjugation_sign(a, b) for a in range(4)] for b in range(4)]) / 4  # chi_b(a) / 4
    joint = np.zeros((dim, dim), dtype=complex)
    joint[0] = psi.amplitudes
    results = []
    for _ in range(cycles):
        branches = np.broadcast_to(joint, (4, dim, dim))
        for i in range(n):
            hi, lo = 2 ** (n - 1 - i), 2**i
            split = branches.reshape(4, hi, 2, lo, hi, 2, lo)  # environment bit i, then system bit i
            branches = np.einsum("apsqt,aHqLhtl->aHpLhsl", factors[:, i], split)
        branches = signs @ branches.reshape(4, dim * dim)
        probs = (np.abs(branches) ** 2).sum(axis=1)
        joint = branches[0].reshape(dim, dim) / np.sqrt(probs[0])
        results.append((probs, np.sum(np.abs(joint @ psi.amplitudes.conj()) ** 2)))
    return results


@pytest.mark.parametrize("n", [5, 6])
def test_persist_kernel_matches_the_einsum_kernel_past_the_dense_reach(n):
    code, model, psi = build_code(n), random_model(n, 40 + n), random_state(n, n)
    run = zeno_run(code, model, 0.3, 3, "persist", 0, psi)
    for cycle, (probs, fidelity) in zip(run.per_cycle, einsum_persist_run(code, model, 0.3, 3, psi), strict=True):
        assert np.abs(np.subtract(cycle.syndrome_probabilities, probs)).max() <= 1e-13
        assert abs(cycle.conditional_fidelity - fidelity) <= 1e-13


@pytest.mark.parametrize("n", [5, 6])
def test_persist_run_holds_a_few_copies_of_the_branch_states(n):
    code, model, psi = build_code(n), random_model(n, 1), random_state(n, 2)
    zeno_run(code, model, 0.2, 1, "persist", 0, psi)  # the model's pair eigenbases and the layout index
    tracemalloc.start()
    try:
        zeno_run(code, model, 0.2, 4, "persist", 0, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    branch_states_bytes = 4 * 4**n * np.dtype(complex).itemsize
    assert peak <= 4 * branch_states_bytes


@pytest.mark.parametrize("n", range(7, 11))
@pytest.mark.parametrize("epsilon", [0.1, 0.03])
def test_persist_first_cycle_matches_the_product_input_reference_past_the_cap(monkeypatch, n, epsilon):
    # only the first cycle qualifies: later cycles start from an entangled system
    monkeypatch.setattr(zenosim.zeno_code, "MAX_SYSTEM_QUBITS", 10)
    model = random_model(n, seed=n)
    cycle = zeno_run(build_code(n), model, epsilon, 1, env_policy="persist").per_cycle[0]
    probs, infidelity = product_input_first_cycle(model, epsilon)
    np.testing.assert_allclose(cycle.syndrome_probabilities, probs, rtol=0, atol=1e-14)
    assert cycle.failure_probability == pytest.approx(math.fsum(probs[1:]), rel=1e-12, abs=0)
    assert 1.0 - cycle.conditional_fidelity == pytest.approx(infidelity, rel=1e-9, abs=0)


def test_persist_run_calls_no_einsum(monkeypatch):
    model = random_model(3, 5)
    model.pair_eigh  # built on first use, with an einsum of its own

    def einsum(*args, **kwargs):
        raise AssertionError("np.einsum called")

    monkeypatch.setattr(np, "einsum", einsum)
    assert zeno_run(CODES[3], model, 0.2, 4, "persist", 0, random_state(3, 6)).cycles == 4


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
