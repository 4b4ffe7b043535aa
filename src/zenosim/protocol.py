"""End-to-end protection experiments.

A cycle is prepare -> encode -> noisy evolution -> decode -> ancilla
measurement.  All reported statistics are exact Born probabilities on the
postselected (no-error) branch; sampling is layered on top purely for
realism and is always seeded.

Single cycles, sweeps and the two-time protocol evolve the full dense
ancilla|system|environment register.  Repeated-measurement runs never
build it.  The noise factorizes as exp(i eps H) = (x)_i V_i over (system i,
environment i) pairs, and the encoder is sum_a |a><a| (x) sigma_a^(x)n, so
the syndrome-b branch of one cycle is 1/4 sum_a chi_b(a) (x)_i sigma_a V_i
sigma_a, with chi_b(a) the conjugation sign of `coefficient_table()`.

Repeated-measurement runs split the total noise strength over k cycles.
Under the default "reset" policy each cycle sees a fresh environment: the
system's density matrix goes through the Kraus channel of that branch sum
with the environment entering in |0...0>, built once per run.  "persist"
keeps one environment entangled across the whole run and carries the joint
system|environment pure state, applying the pair factors one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContractViolation
from .fitting import PowerLawFit, fit_power_law
from .noise import NoiseModel, noise_unitary, pair_unitaries, random_model
from .pauli import PAULI_MATRICES
from .statevec import (
    NORM_TOL,
    DenseOperator,
    StateVector,
    apply,
    basis_state,
    overlap_probability,
    postselect,
    product_state,
    projection_probabilities,
    protected_register,
    sample_outcome,
)
from .zeno_code import ZenoCode, check_system_state, decode, encode, prepare
from .heisenberg import controlled_flip


@dataclass(frozen=True)
class CycleResult:
    """Exact statistics of one protection cycle."""

    success_probability: float
    conditional_fidelity: float
    failure_probability: float
    syndrome_probabilities: tuple[float, float, float, float]
    sampled_syndrome: int

    def __post_init__(self):
        for value in (self.success_probability, self.conditional_fidelity, self.failure_probability):
            if not -1e-12 <= value <= 1 + 1e-12:
                raise ContractViolation(f"probability {value} outside [0, 1]")


@dataclass(frozen=True)
class RunResult:
    """A k-cycle repeated-measurement run, conditioned on every syndrome reading 0."""

    cycles: int
    epsilon_per_cycle: float
    env_policy: str
    per_cycle: tuple[CycleResult, ...]
    cumulative_success: float
    cumulative_failure: float
    final_conditional_fidelity: float


@dataclass(frozen=True)
class SweepRow:
    x: float
    failure_probability: float
    infidelity: float


@dataclass(frozen=True)
class SweepTable:
    """Sweep rows plus the log-log fit of the chosen observable."""

    observable: str
    rows: tuple[SweepRow, ...]
    fit: PowerLawFit | None
    status: str  # "ok" | "floor"


@dataclass(frozen=True)
class TwoTimeResult:
    """Joint outcome distribution of the paired two-time comparisons."""

    systems: int
    epsilon: float
    labels: tuple[tuple[tuple[int, int], ...], ...]
    probabilities: np.ndarray
    sampled_outcome: int

    @property
    def success_probability(self) -> float:
        """Probability that every comparison reads 0 (no change detected)."""
        return float(self.probabilities[0])

    @property
    def other_outcome_mass(self) -> float:
        return float(1.0 - self.probabilities[0])


def _attach_environment(state: StateVector, n: int) -> StateVector:
    env = basis_state(n)
    return product_state(state, env, layout=protected_register(n))


def _cycle_state(code: ZenoCode, state: StateVector, model: NoiseModel, epsilon: float) -> StateVector:
    state = encode(code, state)
    state = apply(noise_unitary(model, epsilon, fresh_environment=True), state)
    return decode(code, state)


def _check_norm_drift(before: StateVector, after: StateVector) -> None:
    """The unitaries applied in between kept the norm to NORM_TOL: an O(state) check per run."""
    drift = abs(after.norm() - before.norm())
    if not drift <= NORM_TOL:
        raise ContractViolation(f"evolution changed the state's norm by {drift:.3e}")


def single_cycle(
    code: ZenoCode,
    model: NoiseModel,
    psi: StateVector,
    rng_seed: int,
    epsilon: float | None = None,
) -> CycleResult:
    """Run one protection cycle and report its exact statistics.

    The syndrome sample drawn from `rng_seed` is recorded but never enters
    the probabilities or the fidelity, which are computed from the full
    postselected branch.
    """
    if model.n != code.n:
        raise ContractViolation(f"noise model has n={model.n} but code has n={code.n}")
    eps = model.epsilon if epsilon is None else epsilon
    reference = prepare(code, psi)
    start = _attach_environment(reference, code.n)
    state = _cycle_state(code, start, model, eps)
    _check_norm_drift(start, state)
    probs = projection_probabilities(state, (0, 1), code.syndrome_basis)
    _, post = postselect(state, (0, 1), code.in_state)
    fidelity = overlap_probability(post, reference)
    return _cycle_result(probs, fidelity, np.random.default_rng(rng_seed))


def _branch_signs(code: ZenoCode) -> np.ndarray:
    """chi_b(a) / 4 indexed [b, a]: the syndrome-b branch weights of the four encoder branches."""
    return np.array(code.coefficients.signs, dtype=float).T / 4


def _branch_factors(model: NoiseModel, epsilon: float) -> np.ndarray:
    """W[a, i] = sigma_a V_i sigma_a with sigma_a on system i, shape (4, n, 4, 4).

    The encoder is sum_a |a><a| (x) sigma_a^(x)n, so on ancilla branch a the
    encode-noise-decode sandwich is the product of these pair factors.
    """
    flips = np.stack([np.kron(np.eye(2), p) for p in PAULI_MATRICES])[:, None]
    return flips @ pair_unitaries(model, epsilon)[None] @ flips


def kraus_operators(code: ZenoCode, model: NoiseModel, epsilon: float) -> np.ndarray:
    """K[b, e] = 1/4 sum_a chi_b(a) (x)_i <e_i|W[a, i]|0>, shape (4, 2^n, 2^n, 2^n).

    One cycle with a fresh environment in |0...0> takes the system's rho to
    the syndrome-b branch sum_e K[b, e] rho K[b, e]^dagger, where e is the
    environment's outcome; summed over b the channel preserves trace.
    """
    n = code.n
    # pair factors as [a, i, env out, sys out, env in, sys in], environment entering in |0>
    factors = _branch_factors(model, epsilon).reshape(4, n, 2, 2, 2, 2)[..., 0, :]
    ops = np.ones((4, 1, 1, 1), dtype=complex)
    for i in range(n):  # pair i becomes the most significant bit so far
        d = 2 ** (i + 1)
        ops = np.einsum("aesu,aEST->aeEsSuT", factors[:, i], ops).reshape(4, d, d, d)
    return np.tensordot(_branch_signs(code), ops, axes=1)


def kraus_step(kraus: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome probabilities p_b = sum_e tr(K[b, e] rho K[b, e]^dagger) and the normalized no-error rho."""
    k_rho = kraus @ rho
    probs = np.einsum("besk,besk->b", k_rho, kraus.conj()).real
    p0 = _no_error_weight(probs)
    return probs, (k_rho[0] @ kraus[0].conj().swapaxes(-1, -2)).sum(axis=0) / p0


def _no_error_weight(probs: np.ndarray) -> float:
    p0 = float(probs[0])
    if not p0 > 1e-300:
        raise ContractViolation("postselection branch has zero weight")
    return p0


def _cycle_result(probs: np.ndarray, fidelity: float, rng: np.random.Generator) -> CycleResult:
    p0 = float(probs[0])
    return CycleResult(
        p0, float(fidelity), float(1.0 - p0), tuple(float(p) for p in probs), sample_outcome(rng, probs)
    )


def _reset_policy_run(code, model, eps_c, cycles, psi, rng) -> list[CycleResult]:
    kraus = kraus_operators(code, model, eps_c)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    results = []
    for _ in range(cycles):
        probs, rho = kraus_step(kraus, rho)
        fidelity = (psi.amplitudes.conj() @ rho @ psi.amplitudes).real
        results.append(_cycle_result(probs, fidelity, rng))
    return results


def _persist_policy_run(code, model, eps_c, cycles, psi, rng) -> list[CycleResult]:
    n = code.n
    dim = 2**n
    factors = _branch_factors(model, eps_c).reshape(4, n, 2, 2, 2, 2)  # as in kraus_operators
    signs = _branch_signs(code)
    joint = np.zeros((dim, dim), dtype=complex)  # [environment, system], environment in |0...0>
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
        joint = branches[0].reshape(dim, dim) / np.sqrt(_no_error_weight(probs))
        fidelity = np.sum(np.abs(joint @ psi.amplitudes.conj()) ** 2)
        results.append(_cycle_result(probs, fidelity, rng))
    return results


def zeno_run(
    code: ZenoCode,
    model: NoiseModel,
    total_epsilon: float,
    cycles: int,
    env_policy: str = "reset",
    rng_seed: int = 0,
    psi: StateVector | None = None,
) -> RunResult:
    """Split the noise over `cycles` measured intervals and track the no-error branch.

    Per-cycle strength is total_epsilon / cycles, so larger k means more
    frequent measurement of the same total disturbance; the cumulative
    failure shrinks roughly like 1/k.
    """
    if not isinstance(cycles, int) or cycles < 1:
        raise ContractViolation(f"cycle count must be a positive integer, got {cycles!r}")
    if env_policy not in ("reset", "persist"):
        raise ContractViolation(f"env_policy must be 'reset' or 'persist', got {env_policy!r}")
    if model.n != code.n:
        raise ContractViolation(f"noise model has n={model.n} but code has n={code.n}")
    if psi is None:
        psi = basis_state(code.n)
    check_system_state(code, psi)
    eps_c = total_epsilon / cycles
    rng = np.random.default_rng(rng_seed)
    runner = _reset_policy_run if env_policy == "reset" else _persist_policy_run
    per_cycle = runner(code, model, eps_c, cycles, psi, rng)
    cumulative = float(np.prod([c.success_probability for c in per_cycle]))
    return RunResult(
        cycles=cycles,
        epsilon_per_cycle=eps_c,
        env_policy=env_policy,
        per_cycle=tuple(per_cycle),
        cumulative_success=cumulative,
        cumulative_failure=float(1.0 - cumulative),
        final_conditional_fidelity=per_cycle[-1].conditional_fidelity,
    )


def epsilon_sweep(
    code: ZenoCode,
    model_or_seed,
    epsilons,
    psi: StateVector | None = None,
    observable: str = "failure",
    rng_seed: int = 0,
) -> SweepTable:
    """Exact single-cycle statistics across a strength grid, with a power-law fit.

    `model_or_seed` is either a NoiseModel or an integer seed for a random
    one.  Points whose observable sits at the numerical floor are excluded
    from the fit; if too few remain the table carries a "floor" status and
    no fit.
    """
    if observable not in ("failure", "infidelity"):
        raise ContractViolation(f"observable must be 'failure' or 'infidelity', got {observable!r}")
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size < 4:
        raise ContractViolation("need at least four sweep points")
    if not (np.isfinite(eps).all() and (eps > 0).all()):
        raise ContractViolation("sweep strengths must be finite and positive")
    if eps.max() / eps.min() < 10.0:
        raise ContractViolation("sweep must span at least one decade")
    model = model_or_seed if isinstance(model_or_seed, NoiseModel) else random_model(code.n, int(model_or_seed))
    if psi is None:
        psi = basis_state(code.n)
    rows = []
    for e in eps:
        cycle = single_cycle(code, model, psi, rng_seed, epsilon=float(e))
        rows.append(SweepRow(float(e), cycle.failure_probability, 1.0 - cycle.conditional_fidelity))
    values = [r.failure_probability if observable == "failure" else r.infidelity for r in rows]
    fit = fit_power_law(eps, values)
    status = "ok" if fit is not None else "floor"
    return SweepTable(observable, tuple(rows), fit, status)


def _plus_state() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


@cache
def _comparison_basis(num_tests: int) -> np.ndarray:
    """Outcome basis: each test qubit read out as unchanged (+) or flipped (-); read-only, built once."""
    single = np.column_stack(
        [np.array([1, 1], dtype=complex) / np.sqrt(2), np.array([1, -1], dtype=complex) / np.sqrt(2)]
    )
    basis = np.array([[1.0 + 0j]])
    for _ in range(num_tests):
        basis = np.kron(single, basis)
    basis.flags.writeable = False
    return basis


@cache
def _two_time_gates(n: int) -> tuple[tuple[DenseOperator, ...], tuple[DenseOperator, ...]]:
    """The controlled flips before and after the disturbance window, in time order; built once per n."""
    num_tests = 2 * n

    def flip(letter: str, pair: int):
        control = 2 * pair + (0 if letter == "x" else 1)
        target = num_tests + pair
        return controlled_flip(letter).retargeted((control, target))

    # ascending time: outer pair (highest index) couples first and last
    pre = tuple(flip("x", p) for p in reversed(range(n))) + tuple(flip("y", p) for p in reversed(range(n)))
    post = tuple(flip("y", p) for p in range(n)) + tuple(flip("x", p) for p in range(n))
    return pre, post


def two_time_protocol(
    disturbance: NoiseModel,
    epsilon: float,
    rng_seed: int,
    psi: StateVector | None = None,
) -> TwoTimeResult:
    """Compare each system's x and y components at two times with test qubits.

    Per system, one test qubit couples through an x-type controlled flip
    before and after the disturbance window and another through a y-type
    flip at nested instants in between; a test qubit found flipped means
    the corresponding two-time difference read 2 instead of 0.  With two
    systems the second pair's couplings are staggered just outside the
    first pair's, giving the 4 x 4 joint outcome grid.
    """
    n = disturbance.n
    if n not in (1, 2):
        raise ContractViolation("the two-time protocol is implemented for 1 or 2 systems")
    if psi is None:
        psi = basis_state(n)
    if psi.num_qubits != n:
        raise ContractViolation(f"system state has {psi.num_qubits} qubits, expected {n}")
    num_tests = 2 * n
    plus = _plus_state()
    start = product_state(*([plus] * num_tests), psi, basis_state(n).amplitudes)
    state = start
    pre, post = _two_time_gates(n)
    for gate in pre:
        state = apply(gate, state)
    u = noise_unitary(disturbance, epsilon)
    sys_env = tuple(range(num_tests, num_tests + 2 * n))
    state = apply(u.retargeted(sys_env), state)
    for gate in post:
        state = apply(gate, state)
    _check_norm_drift(start, state)

    basis = _comparison_basis(num_tests)
    probs = projection_probabilities(state, tuple(range(num_tests)), basis)
    labels = []
    for outcome in range(4**n):
        per_pair = tuple(
            (2 * ((outcome >> (2 * p)) & 1), 2 * ((outcome >> (2 * p + 1)) & 1))
            for p in range(n)
        )
        labels.append(per_pair)
    sampled = sample_outcome(np.random.default_rng(rng_seed), probs)
    return TwoTimeResult(n, float(epsilon), tuple(labels), probs, sampled)


#: Syndrome letter -> two-time outcome index for one system (x and y comparisons).
SYNDROME_TO_TWO_TIME = {0: 0, 1: 2, 2: 1, 3: 3}
