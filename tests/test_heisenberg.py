import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenosim
import zenosim.heisenberg
from zenosim.errors import ContractViolation
from zenosim.heisenberg import (
    _flip_product_conjugations,
    _syndrome_distribution,
    ancilla_factor,
    ancilla_factor_expectation,
    conditioned_cycle_operator,
    controlled_flip,
    effective_noise_check,
    encoder_matrix,
    flip_product_encoder,
    run_verification,
    verify_encoder_conjugations,
    verify_flip_conjugation,
    verify_flip_product_equivalence,
)
from zenosim.fitting import fit_power_law
from zenosim.noise import NoiseModel, noise_unitary, random_model
from zenosim.pauli import PAULI_MATRICES, syndrome_state
from zenosim.statevec import (
    DenseOperator,
    apply,
    basis_state,
    operator_on_register,
    product_state,
    projection_probabilities,
    random_state,
)
from zenosim.statevec import _register_layout
from zenosim.zeno_code import build_code, prepare

I2 = np.eye(2)
Z = PAULI_MATRICES[3]


def test_controlled_flip_is_hermitian_unitary_involution():
    for letter in "xyz":
        mat = controlled_flip(letter).matrix
        assert np.abs(mat - mat.conj().T).max() == 0.0
        assert np.abs(mat @ mat - np.eye(4)).max() == 0.0


def test_controlled_flip_rejects_identity_letter():
    with pytest.raises(ContractViolation):
        controlled_flip("w")


@pytest.mark.parametrize("a", "xyz")
@pytest.mark.parametrize("b", "xyz")
def test_flip_conjugation_all_nine_cases(a, b):
    report = verify_flip_conjugation(a, b)
    assert report.status == "pass"
    assert report.max_defect <= 1e-12


def test_flip_conjugation_specific_forms():
    # matching letters pass the operator straight through
    gate = controlled_flip("x").matrix
    measured = gate @ np.kron(PAULI_MATRICES[1], I2) @ gate
    assert np.abs(measured - np.kron(PAULI_MATRICES[1], I2)).max() == 0.0
    # mismatched letters attach a z to the control
    measured = gate @ np.kron(PAULI_MATRICES[2], I2) @ gate
    assert np.abs(measured - np.kron(PAULI_MATRICES[2], Z)).max() == 0.0
    gate_z = controlled_flip("z").matrix
    measured = gate_z @ np.kron(PAULI_MATRICES[1], I2) @ gate_z
    assert np.abs(measured - np.kron(PAULI_MATRICES[1], Z)).max() == 0.0


def test_encoder_conjugation_lines():
    reports = {r.identity: r for r in verify_encoder_conjugations(_flip_product_conjugations())}
    assert reports["encoder-conjugation[x]"].status == "pass"
    assert reports["encoder-conjugation[y]"].status == "pass"
    z_line = reports["encoder-conjugation[z]"]
    assert z_line.status == "pass"
    assert "sigma_z" in z_line.note and "sigma_x" in z_line.note


def test_encoder_conjugation_z_line_differs_from_quoted_form():
    # the dense computation yields a z system factor; the x form is wrong
    enc = flip_product_encoder()
    lhs = enc @ operator_on_register(Z, (2,), 3) @ enc.conj().T
    computed = operator_on_register(np.kron(Z, I2), (0, 1), 3) @ operator_on_register(Z, (2,), 3)
    quoted = operator_on_register(np.kron(Z, I2), (0, 1), 3) @ operator_on_register(
        PAULI_MATRICES[1], (2,), 3
    )
    assert np.abs(lhs - computed).max() < 1e-12
    assert np.abs(lhs - quoted).max() > 0.5


def test_ancilla_factor_table_and_compact_form():
    enc = flip_product_encoder()
    expected = {"x": np.kron(Z, Z), "y": np.kron(I2, Z), "z": np.kron(Z, I2)}
    for name, letter in (("x", 1), ("y", 2), ("z", 3)):
        fac = ancilla_factor(name)
        assert np.abs(fac - expected[name]).max() == 0.0
        assert np.abs(fac @ fac - np.eye(4)).max() == 0.0
        assert np.abs(fac - np.diag(np.diag(fac))).max() == 0.0
        lhs = enc @ operator_on_register(PAULI_MATRICES[letter], (2,), 3) @ enc.conj().T
        rhs = operator_on_register(fac, (0, 1), 3) @ operator_on_register(
            PAULI_MATRICES[letter], (2,), 3
        )
        assert np.abs(lhs - rhs).max() < 1e-12


def test_ancilla_factor_expectations_are_kronecker_delta():
    assert ancilla_factor_expectation(0) == 1.0
    for a in (1, 2, 3):
        assert ancilla_factor_expectation(a) == 0.0


def test_start_state_is_both_x_up_qubits():
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.abs(np.kron(plus, plus) - syndrome_state(0)).max() < 1e-15
    in_state = prepare(build_code(1), basis_state(1)).amplitudes.reshape(-1, 4)[0]  # the ancilla next to |0>
    assert np.abs(in_state - syndrome_state(0)).max() < 1e-15


def test_flip_product_encoder_branch_structure():
    # branches carry letters (identity, z, y, x) with a lone i on the last
    enc = flip_product_encoder()
    table = [
        (a, letter, phase)
        for a in range(4)
        for letter in range(4)
        for phase in (1, 1j, -1, -1j)
        if np.abs(enc[a::4, a::4] - phase * PAULI_MATRICES[letter]).max() < 1e-12
    ]
    assert table == [(0, 0, 1), (1, 3, 1), (2, 2, 1), (3, 1, 1j)]


def test_flip_product_and_canonical_encoders_agree_physically():
    report = verify_flip_product_equivalence()
    assert report.status == "pass"
    assert report.max_defect <= 1e-12


def _state_vector_syndrome_distribution(encoder_full, decoder_full, noise, psi):
    """The same n = 1 cycle on a state vector: each step applied on its target qubits, then a projective read-out."""
    state = product_state(syndrome_state(0), psi, basis_state(1).amplitudes)
    for mat, targets in ((encoder_full, (0, 1, 2)), (noise, (2, 3)), (decoder_full, (0, 1, 2))):
        state = apply(DenseOperator(mat, targets), state)
    basis = np.column_stack([syndrome_state(b) for b in range(4)])
    return projection_probabilities(state, (0, 1), basis)


def test_register_syndrome_distribution_matches_the_state_vector_path_bit_for_bit():
    flips = flip_product_encoder()
    encoders = {"canonical": (encoder_matrix(1), encoder_matrix(1)), "flip-product": (flips, flips.conj().T)}
    for name, (enc, dec) in encoders.items():
        for seed in range(10):
            model = random_model(1, seed)
            for eps in (1e-6, 2e-2, 0.5):
                noise = noise_unitary(model, eps)
                for trial in range(5):
                    psi = random_state(1, 100 * seed + trial).amplitudes
                    register = _syndrome_distribution(enc, dec, noise, psi)
                    reference = _state_vector_syndrome_distribution(enc, dec, noise, psi)
                    assert np.array_equal(register, reference), (name, seed, eps, trial)


def test_conditioned_operator_equals_letter_average():
    # conditioning on the uniform ancilla averages the noise over all four letters
    model = random_model(1, seed=3)
    eps = 0.05
    n_mat = noise_unitary(model, eps)
    expected = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        word = np.kron(I2, PAULI_MATRICES[a])  # env above system
        expected += 0.25 * word @ n_mat @ word
    cond = conditioned_cycle_operator(model, eps)
    assert np.abs(cond - expected).max() < 1e-12


def test_effective_noise_defect_vanishes_at_zero():
    model = random_model(1, seed=6)
    assert effective_noise_check(model, 0.0) < 1e-14


def test_effective_noise_exact_for_identity_couplings():
    couplings = np.zeros((1, 4, 2, 2), dtype=complex)
    couplings[0, 0] = random_model(1, seed=9).couplings[0, 0]
    model = NoiseModel(1, couplings)
    assert effective_noise_check(model, 0.1) < 1e-12


def test_effective_noise_defect_is_quadratic():
    model = random_model(1, seed=15)
    eps = np.geomspace(1e-3, 3e-2, 8)
    defects = [effective_noise_check(model, e) for e in eps]
    fit = fit_power_law(eps, defects)
    assert fit is not None
    assert fit.slope == pytest.approx(2.0, abs=0.05)


def test_effective_noise_requires_single_system():
    with pytest.raises(ContractViolation):
        effective_noise_check(random_model(2, seed=1), 0.01)


def test_run_verification_all_pass_and_serializable():
    reports = run_verification()
    assert len(reports) >= 20
    assert all(r.status == "pass" for r in reports)
    for r in reports:
        d = dataclasses.asdict(r)
        assert set(d) == {"identity", "status", "max_defect", "note"}


def test_run_verification_forms_the_flip_product_conjugations_once(monkeypatch):
    calls = []
    real = zenosim.heisenberg._flip_product_conjugations

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(zenosim.heisenberg, "_flip_product_conjugations", counting)
    run_verification()
    assert len(calls) == 1


def test_flip_product_equivalence_forms_its_noise_once(monkeypatch):
    calls = []
    real = zenosim.heisenberg.noise_unitary

    def counting(model, epsilon):
        calls.append((model.seed, epsilon))
        return real(model, epsilon)

    monkeypatch.setattr(zenosim.heisenberg, "noise_unitary", counting)
    assert verify_flip_product_equivalence().status == "pass"
    assert calls == [(11, 2e-2)]


def test_two_verification_passes_report_the_same():
    assert run_verification() == run_verification()


def test_shared_constants_are_built_once_and_read_only():
    constants = [ancilla_factor(a) for a in range(4)]
    constants += [controlled_flip(letter).matrix for letter in "xyz"]
    constants += [zenosim.heisenberg._encoder_register(), *_register_layout((0, 1, 2), 4)]
    assert controlled_flip("y") is controlled_flip(2)
    assert ancilla_factor("z") is ancilla_factor(3)
    for arr in constants:
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0


def test_importing_the_package_builds_no_constant():
    probe = (
        "import zenosim, zenosim.heisenberg as h, zenosim.statevec as s; "
        "print(h._controlled_flip.cache_info().currsize, h._ancilla_factors.cache_info().currsize, "
        "h._encoder_register.cache_info().currsize, s._register_layout.cache_info().currsize)"
    )
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split() == ["0", "0", "0", "0"]
