import numpy as np
import pytest

import zenosim.protocol
from zenosim.errors import ContractViolation
from zenosim.fitting import fit_power_law
from zenosim.heisenberg import controlled_flip
from zenosim.noise import noise_unitary, random_model, zero_model
from zenosim.protocol import SYNDROME_TO_TWO_TIME, single_cycle, two_time_protocol
from zenosim.statevec import basis_state, operator_on_register, random_state
from zenosim.zeno_code import build_code

EPS_GRID = np.geomspace(1e-3, 3e-2, 8)


def test_gates_and_basis_are_built_once_per_system_count(monkeypatch):
    model = random_model(2, seed=3)
    first = two_time_protocol(model, 0.05, rng_seed=0)
    built = []
    monkeypatch.setattr(zenosim.protocol, "controlled_flip", built.append)
    two_time_protocol(model, 0.2, rng_seed=0)
    assert built == []
    assert np.array_equal(two_time_protocol(model, 0.05, rng_seed=0).probabilities, first.probabilities)
    pre, post = zenosim.protocol._two_time_gates(2)
    assert all(not gate.matrix.flags.writeable for gate in pre + post)
    with pytest.raises(ValueError, match="read-only"):
        zenosim.protocol._comparison_basis(4)[0, 0] = 0.0


def test_undisturbed_single_system_has_one_outcome():
    result = two_time_protocol(zero_model(1), 0.37, rng_seed=0, psi=random_state(1, 5))
    assert result.labels[0] == (((0, 0),))
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert result.other_outcome_mass < 1e-12
    assert result.sampled_outcome == 0


def test_undisturbed_two_system_joint_outcome_is_certain():
    result = two_time_protocol(zero_model(2), 0.2, rng_seed=1, psi=random_state(2, 6))
    assert len(result.labels) == 16
    assert result.labels[0] == ((0, 0), (0, 0))
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_zero_strength_disturbance_is_also_certain():
    result = two_time_protocol(random_model(1, seed=2), 0.0, rng_seed=0)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_rejects_more_than_two_systems():
    with pytest.raises(ContractViolation):
        two_time_protocol(random_model(3, seed=1), 1e-2, rng_seed=0)
    with pytest.raises(ContractViolation):
        two_time_protocol(random_model(1, seed=1), 1e-2, rng_seed=0, psi=basis_state(2))


def test_disturbed_other_outcome_mass_is_quadratic():
    model = random_model(1, seed=11)
    psi = random_state(1, 12)
    masses = [
        two_time_protocol(model, float(e), rng_seed=0, psi=psi).other_outcome_mass
        for e in EPS_GRID
    ]
    fit = fit_power_law(EPS_GRID, masses)
    assert fit is not None
    assert fit.slope == pytest.approx(2.0, abs=0.1)


def test_matches_single_cycle_success_probability():
    code = build_code(1)
    model = random_model(1, seed=7)
    for eps in (1e-3, 1e-2, 5e-2):
        psi = random_state(1, seed=int(eps * 1e6) % 97)
        cycle = single_cycle(code, model, psi, 0, epsilon=eps)
        twotime = two_time_protocol(model, eps, rng_seed=0, psi=psi)
        assert twotime.success_probability == pytest.approx(
            cycle.success_probability, abs=1e-10
        )


def test_full_distribution_matches_syndrome_distribution():
    # flipped-test-qubit patterns carry the same information as the syndrome
    code = build_code(1)
    model = random_model(1, seed=7)
    psi = random_state(1, 3)
    cycle = single_cycle(code, model, psi, 0, epsilon=2e-2)
    twotime = two_time_protocol(model, 2e-2, rng_seed=0, psi=psi)
    for letter, outcome in SYNDROME_TO_TWO_TIME.items():
        assert twotime.probabilities[outcome] == pytest.approx(
            cycle.syndrome_probabilities[letter], abs=1e-12
        )


def test_two_system_distribution_factorizes_for_independent_noise():
    model = random_model(2, seed=21)
    eps = 2e-2
    joint = two_time_protocol(model, eps, rng_seed=0)
    singles = []
    for i in range(2):
        couplings = model.couplings[i : i + 1].copy()
        sub = type(model)(1, couplings, model.epsilon)
        singles.append(two_time_protocol(sub, eps, rng_seed=0).probabilities)
    for outcome in range(16):
        expected = singles[0][outcome & 3] * singles[1][(outcome >> 2) & 3]
        assert joint.probabilities[outcome] == pytest.approx(expected, abs=1e-12)


def test_shared_pair_coupling_to_two_systems_matches_the_code_conditioning():
    # one test pair serving both systems realizes the n=2 encoder sandwich:
    # the conditioned operators on system+environment agree exactly
    model = random_model(2, seed=5)
    eps = 3e-2
    m = 6  # Tx, Ty, s1, s2, e1, e2
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)

    def flip_full(letter, system):
        return operator_on_register(controlled_flip(letter).matrix, ((0 if letter == "x" else 1), 2 + system), m)

    pre = flip_full("x", 1) @ flip_full("x", 0) @ flip_full("y", 1) @ flip_full("y", 0)
    noise_full = operator_on_register(noise_unitary(model, eps).matrix, (2, 3, 4, 5), m)
    total = pre.conj().T @ noise_full @ pre
    bra = np.kron(plus, plus)
    blocks = total.reshape(16, 4, 16, 4)
    shared_pair_cond = np.einsum("a,xayb,b->xy", bra.conj(), blocks, bra)

    code = build_code(2)
    enc = operator_on_register(code.encoder.matrix, (0, 1, 2, 3), 6)
    noi = operator_on_register(noise_unitary(model, eps).matrix, (2, 3, 4, 5), 6)
    full = enc @ noi @ enc
    code_blocks = full.reshape(16, 4, 16, 4)
    code_cond = np.einsum("a,xayb,b->xy", code.in_state.conj(), code_blocks, code.in_state)
    assert np.abs(shared_pair_cond - code_cond).max() < 1e-12


def test_sampling_is_reproducible():
    model = random_model(1, seed=4)
    a = two_time_protocol(model, 2e-2, rng_seed=123)
    b = two_time_protocol(model, 2e-2, rng_seed=123)
    assert a.sampled_outcome == b.sampled_outcome
    assert np.array_equal(a.probabilities, b.probabilities)
