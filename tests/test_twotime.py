"""The two-time protocol's Gram kernel, against the register reference and at every n.

`dense_reference.dense_two_time_probabilities` applies each controlled flip and
the 4^n noise to the whole 4n-qubit register holding a system state psi.
Each system's 2 x 2 Gram matrix A_p(o)^dagger A_p(o) is g_p(o) times the
identity, so `two_time_protocol` takes no state: it multiplies the weights
g_p(o) and must agree with the reference to 1e-12 for every psi.
"""

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
from dense_reference import dense_two_time_probabilities
from zenosim.cli import main
from zenosim.errors import ContractViolation
from zenosim.fitting import fit_power_law
from zenosim.heisenberg import controlled_flip, encoder_matrix
from zenosim.noise import NoiseModel, noise_unitary, pair_deviations, random_model, zero_model
from zenosim.protocol import SYNDROME_TO_TWO_TIME, single_cycle, two_time_protocol
from zenosim.statevec import basis_state, kron_all, operator_on_register, product_state, random_state
from zenosim.zeno_code import build_code

EPS_GRID = np.geomspace(1e-3, 3e-2, 8)
TOL = 1e-12
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)

# Hypothesis caches the constants it mines from source files even without an
# example database, at collection time; keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "zenosim-hypothesis")


@pytest.fixture
def cold_caches():
    """The two-time label cache empty before the test and after it."""
    zenosim.protocol._two_time_labels.cache_clear()
    yield
    zenosim.protocol._two_time_labels.cache_clear()


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(PROPERTY_SETTINGS, max_examples=15)
@given(
    model_seed=st.integers(0, 2**16),
    psi_seed=st.integers(0, 2**16),
    basis=st.booleans(),
    epsilon=st.floats(0.0, 2.0),
)
def test_gram_kernel_matches_the_dense_reference(n, model_seed, psi_seed, basis, epsilon):
    # the reference runs on the whole register with psi, entangled unless basis
    model = random_model(n, model_seed)
    psi = basis_state(n, psi_seed % 2**n) if basis else random_state(n, psi_seed)
    expected = dense_two_time_probabilities(model, epsilon, psi)
    probs = two_time_protocol(model, epsilon, rng_seed=0).probabilities
    assert np.abs(probs - expected).max() <= TOL


@pytest.fixture
def eigh_calls(monkeypatch):
    """The shapes np.linalg.eigh is called on from here on."""
    calls = []
    real = np.linalg.eigh

    def spy(matrix, *args, **kwargs):
        calls.append(np.shape(matrix))
        return real(matrix, *args, **kwargs)

    monkeypatch.setattr(zenosim.noise.np.linalg, "eigh", spy)
    return calls


@pytest.mark.parametrize("argv", [
    ["twotime", "--eps", "1e-3..3e-2", "--points", "8"],
    ["zeno", "--total-eps", "0.2", "--k", "1,2,4", "--env-policy", "reset"],
    ["zeno", "--total-eps", "0.2", "--k", "1,2,4", "--env-policy", "persist"],
], ids=["twotime", "zeno-reset", "zeno-persist"])
def test_pair_blocks_are_diagonalized_once_per_run(eigh_calls, tmp_path, argv):
    # every strength, and every cycle count of a zeno run, reads the model's cached (w, v)
    assert main([*argv, "--n", "3", "--out", str(tmp_path / "out.csv")]) == 0
    assert eigh_calls == [(3, 4, 4)]


def test_derived_models_diagonalize_their_own_pair_blocks(eigh_calls):
    model = random_model(2, seed=3)
    first = two_time_protocol(model, 0.05, rng_seed=0)
    for _ in range(2):
        assert np.array_equal(two_time_protocol(model, 0.05, rng_seed=0).probabilities, first.probabilities)
    assert eigh_calls == [(2, 4, 4)]
    for derived in (model.scaled(0.5), model.with_epsilon(0.2)):
        assert "pair_eigh" not in vars(derived)
        two_time_protocol(derived, 0.05, rng_seed=0)
        two_time_protocol(derived, 0.07, rng_seed=0)
    assert eigh_calls == [(2, 4, 4)] * 3
    w, v = model.pair_eigh
    for arr in (w, v):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert zenosim.protocol._two_time_labels(2) is zenosim.protocol._two_time_labels(2)


@pytest.mark.parametrize("cold", [True, False])
def test_a_run_calls_neither_noise_unitary_nor_apply(monkeypatch, cold_caches, cold):
    model = random_model(2, seed=3)
    if not cold:
        two_time_protocol(model, 0.05, rng_seed=0)
    called = []
    for module, name in (
        (zenosim.heisenberg, "controlled_flip"),
        (zenosim.noise, "noise_unitary"),
        (zenosim.statevec, "apply"),
        (zenosim.statevec, "product_state"),
        (zenosim.statevec, "projection_probabilities"),
    ):
        def spy(*args, name=name, real=getattr(module, name), **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        for holder in (module, zenosim.protocol):
            if hasattr(holder, name):
                monkeypatch.setattr(holder, name, spy)
    two_time_protocol(model, 0.2, rng_seed=0)
    assert called == []


@pytest.mark.parametrize("n", [1, 2, 6])
def test_two_time_path_keeps_no_array_larger_than_the_register(n):
    model = random_model(n, seed=2)
    two_time_protocol(model, 0.05, rng_seed=0)  # the pair eigenbases and labels are built once
    tracemalloc.start()
    try:
        two_time_protocol(model, 0.05, rng_seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 4^n real probabilities, the last Kronecker step's input, and the
    # sampler's two working copies, plus a few KiB of small objects; at n = 6
    # the 4n-qubit register would be 2^24 amplitudes, 256 MiB
    assert peak < 4 * 4**n * 8 + 8192


@pytest.mark.parametrize("defect", ["two entries in a row", "phase of modulus 1/2"])
def test_a_flip_that_is_not_unitary_fails_the_sum_check(monkeypatch, defect):
    # a pair V = 1 + D that is not unitary: its letter weights miss 1
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
    with pytest.raises(ContractViolation, match="system 0's two-time weights miss 1"):
        two_time_protocol(random_model(1, seed=1), 1e-2, rng_seed=0)


@pytest.mark.parametrize("n", range(3, 7))
def test_distribution_is_normalized_and_nonnegative_past_the_old_cap(n):
    runs = [(random_model(n, seed=n), 3e-2), (random_model(n, seed=n), 0.0), (zero_model(n), 0.5), (zero_model(n), 0.0)]
    for model, eps in runs:
        result = two_time_protocol(model, eps, rng_seed=0)
        assert result.probabilities.shape == (4**n,) and len(result.labels) == 4**n
        assert abs(math.fsum(result.probabilities) - 1.0) <= TOL
        assert (result.probabilities >= 0).all()


def test_undisturbed_single_system_has_one_outcome():
    result = two_time_protocol(zero_model(1), 0.37, rng_seed=0)
    assert result.labels[0] == (((0, 0),))
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert result.other_outcome_mass < 1e-12
    assert result.sampled_outcome == 0


def test_undisturbed_two_system_joint_outcome_is_certain():
    result = two_time_protocol(zero_model(2), 0.2, rng_seed=1)
    assert len(result.labels) == 16
    assert result.labels[0] == ((0, 0), (0, 0))
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_zero_strength_disturbance_is_also_certain():
    result = two_time_protocol(random_model(1, seed=2), 0.0, rng_seed=0)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)


def test_rejects_more_than_six_systems():
    with pytest.raises(ContractViolation, match="1..6"):
        two_time_protocol(random_model(7, seed=1), 1e-2, rng_seed=0)


def test_disturbed_other_outcome_mass_is_quadratic():
    model = random_model(1, seed=11)
    masses = [two_time_protocol(model, float(e), rng_seed=0).other_outcome_mass for e in EPS_GRID]
    fit = fit_power_law(EPS_GRID, masses)
    assert fit is not None
    assert fit.slope == pytest.approx(2.0, abs=0.1)


def test_matches_single_cycle_success_probability():
    code = build_code(1)
    model = random_model(1, seed=7)
    for eps in (1e-3, 1e-2, 5e-2):
        psi = random_state(1, seed=int(eps * 1e6) % 97)
        cycle = single_cycle(code, model, psi, 0, epsilon=eps)
        twotime = two_time_protocol(model, eps, rng_seed=0)
        assert twotime.success_probability == pytest.approx(
            cycle.success_probability, abs=1e-10
        )


def test_full_distribution_matches_syndrome_distribution():
    # flipped-test-qubit patterns carry the same information as the syndrome
    code = build_code(1)
    model = random_model(1, seed=7)
    psi = random_state(1, 3)
    cycle = single_cycle(code, model, psi, 0, epsilon=2e-2)
    twotime = two_time_protocol(model, 2e-2, rng_seed=0)
    for letter, outcome in SYNDROME_TO_TWO_TIME.items():
        assert twotime.probabilities[outcome] == pytest.approx(
            cycle.syndrome_probabilities[letter], abs=1e-12
        )


def test_two_system_distribution_factorizes_for_independent_noise():
    # whatever the state, entangled or not, each system's outcomes are
    # independent: p(o) = prod_p p_p(o_p), each factor from that system's pair
    # alone; the register reference holds the state, up to n = 3
    eps = 2e-2
    for n in range(2, 7):
        model = random_model(n, seed=21 + n)
        singles = [
            two_time_protocol(NoiseModel(1, model.couplings[p : p + 1].copy(), model.epsilon), eps,
                              rng_seed=0).probabilities
            for p in range(n)
        ]
        expected = kron_all(singles, start=(1.0,))  # system 0 on the lowest outcome digit
        assert np.abs(two_time_protocol(model, eps, rng_seed=0).probabilities - expected).max() <= TOL
        if n > 3:
            continue
        product = product_state(*[random_state(1, 30 + p) for p in range(n)])
        for psi in (product, random_state(n, 40), basis_state(n, 1)):
            assert np.abs(dense_two_time_probabilities(model, eps, psi) - expected).max() <= TOL


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
    enc = operator_on_register(encoder_matrix(2), (0, 1, 2, 3), 6)
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
