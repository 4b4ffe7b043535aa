import dataclasses
import json

import numpy as np
import pytest

from dense_reference import (
    dense_build_hamiltonian,
    evolve_exact,
    evolve_first_order,
    pair_unitaries,
    reduced_density_matrix,
)
from zenosim.errors import ContractViolation
from zenosim.fitting import fit_power_law
from zenosim.noise import (
    NoiseModel,
    build_hamiltonian,
    load_model,
    model_from_dict,
    model_to_dict,
    noise_unitary,
    pair_deviations,
    random_model,
    save_model,
    zero_model,
)
from zenosim.output import write_json
from zenosim.pauli import PAULI_MATRICES
from zenosim.protocol import single_cycle
from zenosim.statevec import (
    DenseOperator,
    basis_state,
    hermitian_exp,
    operator_on_register,
    overlap_probability,
    product_state,
    random_state,
)
from zenosim.zeno_code import build_code


def full_register_state(n, seed):
    """Random pure state on ancilla | system | environment."""
    return random_state(2 * n + 2, seed)


def test_random_model_is_seed_deterministic():
    a = random_model(2, seed=9)
    b = random_model(2, seed=9)
    assert np.array_equal(a.couplings, b.couplings)
    c = random_model(2, seed=10)
    assert not np.array_equal(a.couplings, c.couplings)


def test_random_model_builds_a_new_model_on_every_call():
    first = random_model(2, seed=0)
    again = random_model(2, seed=0)
    assert again is not first and np.array_equal(again.couplings, first.couplings)
    with pytest.raises(TypeError):
        random_model(2, 1.0)
    assert random_model(2, True).seed is True


def test_random_model_couplings_have_unit_norm():
    model = random_model(3, seed=4)
    for i in range(3):
        for b in range(4):
            norm = np.abs(np.linalg.eigvalsh(model.couplings[i, b])).max()
            assert norm == pytest.approx(1.0, abs=1e-12)


def per_block_random_couplings(n, seed):
    """random_model's couplings drawn and normalized one (i, b) block at a time."""
    rng = np.random.default_rng(seed)
    couplings = np.zeros((n, 4, 2, 2), dtype=complex)
    for i in range(n):
        for b in range(4):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = (g + g.conj().T) / 2
            couplings[i, b] = a / np.abs(np.linalg.eigvalsh(a)).max()
    return couplings


@pytest.mark.parametrize("n", range(1, 7))
def test_random_model_draws_the_per_block_stream_bit_for_bit(n):
    for seed in range(50):
        assert np.array_equal(random_model(n, seed).couplings, per_block_random_couplings(n, seed)), seed


@pytest.mark.parametrize(
    "blocks, message",
    [
        ({(1, 2): [[0, 1], [0, 0]], (2, 0): 3 * np.eye(2)}, r"coupling \(1, 2\) is not hermitian"),
        ({(1, 2): 3 * np.eye(2), (2, 0): [[0, 1], [0, 0]]}, r"coupling \(1, 2\) has spectral norm > 1"),
        ({(0, 3): 3 * np.array([[0, 1], [0, 0]])}, r"coupling \(0, 3\) is not hermitian"),
    ],
    ids=["hermiticity-first", "norm-first", "both-in-one-block"],
)
def test_noise_model_names_the_first_failing_block(blocks, message):
    couplings = np.zeros((3, 4, 2, 2), dtype=complex)
    for (i, b), block in blocks.items():
        couplings[i, b] = block
    with pytest.raises(ContractViolation, match=message):
        NoiseModel(3, couplings)


def test_noise_model_validation():
    bad = np.zeros((1, 4, 2, 2), dtype=complex)
    bad[0, 0] = np.array([[0, 1], [0, 0]])
    with pytest.raises(ContractViolation):
        NoiseModel(1, bad)
    big = np.zeros((1, 4, 2, 2), dtype=complex)
    big[0, 1] = 3 * np.eye(2)
    with pytest.raises(ContractViolation):
        NoiseModel(1, big)
    with pytest.raises(ContractViolation):
        NoiseModel(2, np.zeros((1, 4, 2, 2)))
    for value in (np.nan, np.inf, complex(0, np.nan)):
        couplings = np.array(random_model(2, seed=1).couplings)
        couplings[1, 2, 0, 0] = value
        with pytest.raises(ContractViolation, match="couplings must be finite"):
            NoiseModel(2, couplings)
        couplings[1, 2] = value  # a whole coupling block
        with pytest.raises(ContractViolation, match="couplings must be finite"):
            NoiseModel(2, couplings)


def test_a_stale_positional_strength_is_rejected():
    # the strength is an argument of every evolution, and the seed is keyword-only
    couplings = random_model(1, seed=1).couplings
    with pytest.raises(TypeError):
        NoiseModel(1, couplings, 0.01)
    assert NoiseModel(1, couplings, seed=1).seed == 1
    model = random_model(2, seed=3)
    for call in (noise_unitary, pair_unitaries, pair_deviations):
        with pytest.raises(TypeError):
            call(model)
    with pytest.raises(TypeError):
        single_cycle(build_code(2), model, basis_state(2), 0)


def test_every_model_needs_a_system_qubit():
    legacy = {"n": 0, "epsilon": 0.0, "seed": None, "couplings": model_to_dict(zero_model(1))["couplings"]}
    for make in (lambda: zero_model(0), lambda: random_model(0, seed=1), lambda: model_from_dict(legacy)):
        with pytest.raises(ContractViolation, match="need at least one system qubit"):
            make()


@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
def test_explicit_non_finite_strength_is_rejected(eps):
    model = random_model(2, seed=3)
    for call in (lambda: noise_unitary(model, eps), lambda: pair_unitaries(model, eps),
                 lambda: pair_deviations(model, eps)):
        with pytest.raises(ContractViolation, match="noise strength must be finite"):
            call()


def test_pair_deviations_are_the_pair_unitaries_minus_one_without_cancellation():
    model = random_model(3, seed=8)
    for eps in (0.0, 1e-3, 0.4, 2.0):
        assert np.abs(pair_deviations(model, eps) + np.eye(4) - pair_unitaries(model, eps)).max() <= 4e-15
    # at eps = 1e-9 the deviation is i eps H - eps^2 H^2 / 2 to rounding relative
    # to eps; V - 1 would keep only the digits of V below 1, about 7 of them
    w, v = model.pair_eigh
    h = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
    eps = 1e-9
    expected = 1j * eps * h - eps**2 * (h @ h) / 2
    assert np.abs(pair_deviations(model, eps) - expected).max() <= 1e-14 * eps
    assert np.abs(pair_unitaries(model, eps) - np.eye(4) - expected).max() > 1e-10 * eps


def _bits(op):
    return op.matrix.view(np.uint64)  # real and imaginary parts, signs of zeros included


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hamiltonian_is_bitwise_the_kron_reference(n):
    model = random_model(n, seed=40 + n)
    sparse = np.array(model.couplings)
    sparse[::2, 1] = 0.0  # some all-zero couplings, skipped by both builders
    sparse[-1, 0] = 0.0
    models = [model, model.scaled(0.5), model.scaled(-1.0), NoiseModel(n, sparse)]
    for m in models:
        assert np.array_equal(_bits(build_hamiltonian(m)), _bits(dense_build_hamiltonian(m)))


def test_zero_model_gives_zero_hamiltonian():
    h = build_hamiltonian(zero_model(2))
    assert np.abs(h.matrix).max() == 0.0


def test_single_coupling_hamiltonian_matches_kron_oracle():
    # x on the system qubit paired with z on its environment qubit
    couplings = np.zeros((1, 4, 2, 2), dtype=complex)
    couplings[0, 1] = PAULI_MATRICES[3]
    model = NoiseModel(1, couplings)
    h = build_hamiltonian(model)
    expected = np.kron(PAULI_MATRICES[3], PAULI_MATRICES[1])  # env above system
    assert np.abs(h.matrix - expected).max() == 0.0
    assert h.target_qubits == (2, 3)


def test_hamiltonian_is_hermitian_for_random_models():
    for n in (1, 2, 3):
        h = build_hamiltonian(random_model(n, seed=n)).matrix
        assert np.abs(h - h.conj().T).max() < 1e-12


def test_evolve_exact_at_zero_strength_is_identity():
    model = random_model(1, seed=1)
    state = full_register_state(1, 5)
    out = evolve_exact(state, model, epsilon=0.0)
    assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-14


def test_evolve_exact_preserves_norm():
    model = random_model(2, seed=3)
    state = full_register_state(2, 6)
    out = evolve_exact(state, model, epsilon=1.0)
    assert abs(out.norm() - 1.0) < 1e-12


def test_evolve_exact_closed_form_single_xx_coupling():
    couplings = np.zeros((1, 4, 2, 2), dtype=complex)
    couplings[0, 1] = PAULI_MATRICES[1]
    model = NoiseModel(1, couplings)
    eps = 0.3
    state = full_register_state(1, 7)
    out = evolve_exact(state, model, epsilon=eps)
    xx = operator_on_register(np.kron(PAULI_MATRICES[1], PAULI_MATRICES[1]), (2, 3), 4)
    expected = (np.cos(eps) * np.eye(16) + 1j * np.sin(eps) * xx) @ state.amplitudes
    assert np.abs(out.amplitudes - expected).max() < 1e-12


def test_evolution_is_linear_over_mixtures():
    # evolving a two-component ensemble member-by-member matches the mixed state
    model = random_model(1, seed=8)
    s1, s2 = full_register_state(1, 11), full_register_state(1, 12)
    lam = 0.3
    rho_mix = lam * np.outer(s1.amplitudes, s1.amplitudes.conj()) + (1 - lam) * np.outer(
        s2.amplitudes, s2.amplitudes.conj()
    )
    e1 = evolve_exact(s1, model, epsilon=0.2).amplitudes
    e2 = evolve_exact(s2, model, epsilon=0.2).amplitudes
    averaged = lam * np.outer(e1, e1.conj()) + (1 - lam) * np.outer(e2, e2.conj())
    u = operator_on_register(noise_unitary(model, 0.2), (2, 3), 4)
    evolved_mix = u @ rho_mix @ u.conj().T
    assert np.abs(averaged - evolved_mix).max() < 1e-12


def test_first_order_at_zero_strength_is_identity():
    model = random_model(1, seed=2)
    state = full_register_state(1, 3)
    out = evolve_first_order(state, model, epsilon=0.0)
    assert np.abs(out.amplitudes - state.amplitudes).max() == 0.0


def test_first_order_norm_excess_is_quadratic():
    model = random_model(1, seed=13)
    state = full_register_state(1, 14)
    eps = np.geomspace(1e-3, 3e-2, 8)
    excess = [abs(evolve_first_order(state, model, epsilon=e).norm() ** 2 - 1.0) for e in eps]
    fit = fit_power_law(eps, excess)
    assert fit is not None
    assert fit.slope == pytest.approx(2.0, abs=0.05)


def test_exact_minus_first_order_is_quadratic():
    model = random_model(1, seed=20)
    state = full_register_state(1, 21)
    eps = np.geomspace(1e-3, 3e-2, 8)
    diffs = [
        np.linalg.norm(
            evolve_exact(state, model, epsilon=e).amplitudes
            - evolve_first_order(state, model, epsilon=e).amplitudes
        )
        for e in eps
    ]
    fit = fit_power_law(eps, diffs)
    assert fit is not None
    assert fit.slope == pytest.approx(2.0, abs=0.05)


def test_identity_letter_couplings_leave_system_block_unchanged():
    # couplings on letter 0 only touch the environment
    couplings = np.zeros((1, 4, 2, 2), dtype=complex)
    couplings[0, 0] = random_model(1, seed=31).couplings[0, 0]
    model = NoiseModel(1, couplings)
    block = random_state(3, 44)  # ancilla + system
    state = product_state(block, basis_state(1))
    for evolved in (
        evolve_exact(state, model, epsilon=0.05),
        evolve_first_order(state, model, renormalize=True, epsilon=0.05),
    ):
        assert overlap_probability(evolved, block) == pytest.approx(1.0, abs=1e-12)
        rho = reduced_density_matrix(evolved, (0, 1, 2))
        assert np.abs(rho - np.outer(block.amplitudes, block.amplitudes.conj())).max() < 1e-12


def test_scaled_copy():
    model = random_model(1, seed=5)
    half = model.scaled(0.5)
    assert np.abs(half.couplings - 0.5 * model.couplings).max() == 0.0
    assert half.seed == model.seed == 5


def _uncached_unitary(model, eps):
    return hermitian_exp(build_hamiltonian(model), eps).matrix


def test_cached_hamiltonian_gives_the_uncached_unitary_bit_for_bit():
    model = random_model(3, seed=12)
    assert np.array_equal(model.hamiltonian.matrix, build_hamiltonian(model).matrix)
    for eps in (0.0, 1e-3, 0.05, 0.4):
        assert np.array_equal(hermitian_exp(model.hamiltonian, eps).matrix, _uncached_unitary(model, eps))


@pytest.mark.parametrize("n, seeds", [(1, range(4)), (2, range(4)), (3, range(4)), (4, range(3)), (5, range(1))])
def test_fresh_environment_columns_are_bitwise_those_of_the_whole_unitary(n, seeds):
    width = max(2**n, 4)
    for seed in seeds:
        model = random_model(n, seed)
        for eps in (-0.7, 1e-3, 0.05, 1.0, 3.5):
            fresh = noise_unitary(model, eps)
            whole = hermitian_exp(model.hamiltonian, eps).matrix
            assert fresh.shape == (4**n, width)
            assert np.array_equal(fresh.view(np.uint64), whole[:, :width].view(np.uint64)), (seed, eps)
    assert hermitian_exp(model.hamiltonian, 0.05, width).dim == 4**n  # the operator's, not the column count


def test_model_and_operator_arrays_are_read_only():
    model = random_model(2, seed=6)
    with pytest.raises(ValueError, match="read-only"):
        model.couplings[0, 1, 0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        model.hamiltonian.matrix[0, 0] = 1.0
    w, v = model.hamiltonian.eigh
    for arr in (w, v, noise_unitary(model, 0.1)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_derived_models_build_their_own_caches():
    model = random_model(2, seed=15)
    model.hamiltonian.eigh  # fill both caches of the original
    half = model.scaled(0.5)
    assert "hamiltonian" not in vars(half)
    for eps in (0.01, 0.07):
        assert np.array_equal(hermitian_exp(half.hamiltonian, eps).matrix, _uncached_unitary(half, eps))
    assert not np.array_equal(noise_unitary(half, 0.3), noise_unitary(model, 0.3))
    assert np.array_equal(half.hamiltonian.matrix, 0.5 * model.hamiltonian.matrix)


def test_retargeted_operator_decomposes_afresh():
    h = random_model(1, seed=3).hamiltonian
    moved = dataclasses.replace(h, target_qubits=(0, 1))
    assert "eigh" not in vars(moved)
    assert np.array_equal(hermitian_exp(moved, 0.2).matrix, hermitian_exp(h, 0.2).matrix)
    assert hermitian_exp(moved, 0.2).target_qubits == (0, 1)


def test_non_hermitian_operator_is_rejected_on_every_call():
    op = DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (0,))
    for _ in range(2):  # a failed decomposition is not cached
        with pytest.raises(ContractViolation, match="not hermitian"):
            hermitian_exp(op, 0.1)
    assert "eigh" not in vars(op)


def test_json_roundtrip(tmp_path):
    model = random_model(2, seed=77)
    for m in (model, model.scaled(-1.0)):  # the second has imaginary parts of -0.0
        data = model_to_dict(m)
        assert sorted(data) == ["couplings", "n", "seed"]
        clone = model_from_dict(data)
        assert (clone.n, clone.seed) == (m.n, m.seed)
        assert np.array_equal(clone.couplings.view(np.uint64), m.couplings.view(np.uint64))
    assert np.signbit(model.scaled(-1.0).couplings.imag).any()
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.couplings.view(np.uint64), model.couplings.view(np.uint64))
    # file is plain JSON
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["n"] == 2


def test_a_saved_model_holds_the_bytes_write_json_gives(tmp_path):
    # one JSON writer: sorted keys, two-space indent and a trailing newline
    model = random_model(2, seed=77)
    save_model(model, tmp_path / "model.json")
    write_json(tmp_path / "direct.json", model_to_dict(model))
    assert (tmp_path / "model.json").read_bytes() == (tmp_path / "direct.json").read_bytes()


def test_model_dict_ignores_a_legacy_strength_and_rejects_malformed_couplings():
    data = model_to_dict(random_model(1, seed=4))
    legacy = model_from_dict({**data, "epsilon": 0.5})
    assert np.array_equal(legacy.couplings, model_from_dict(data).couplings)
    short = data["couplings"][0][:3]
    triples = [[[[0.0, 0.0, 0.0]] * 2] * 2] * 4
    words = [[[[0, "1"]] * 2] * 2] * 4
    for couplings in ([short], [triples], [words], []):
        with pytest.raises(ContractViolation):
            model_from_dict({**data, "couplings": couplings})
    with pytest.raises(ValueError):  # ragged
        model_from_dict({**data, "couplings": [[[[0.0, 0.0]] * 2, [[0.0, 0.0]]]] * 4})
