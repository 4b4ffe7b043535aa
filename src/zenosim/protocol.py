"""End-to-end protection experiments.

A cycle is prepare -> encode -> noisy evolution -> decode -> ancilla
measurement.  All reported statistics are exact Born probabilities on the
postselected (no-error) branch; sampling is layered on top purely for
realism and is always seeded.

Single cycles and sweeps evolve the full ancilla|system|environment state
vector under the dense noise unitary; the encoder acts on it as four
branch words.  The two-time protocol and repeated-measurement runs never
build the full state; the two-time distribution is contracted from one
2 x 2 Gram matrix per system and outcome.  The noise factorizes as
exp(i eps H) = (x)_i V_i over (system i, environment i) pairs, and the encoder is
sum_a |a><a| (x) sigma_a^(x)n, so the syndrome-b branch of one cycle is
1/4 sum_a chi_b(a) (x)_i sigma_a V_i sigma_a, with chi_b(a) =
`conjugation_sign(a, b)`, twice the syndrome basis entry [a, b].

Repeated-measurement runs split the total noise strength over k cycles.
Under the default "reset" policy each cycle sees a fresh environment: the
system's density matrix goes through the Kraus channel of that branch sum
with the environment entering in |0...0>, built once per run.  "persist"
keeps one environment entangled across the whole run and carries the joint
system|environment pure state, applying the pair factors one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContractViolation
from .fitting import PowerLawFit, fit_power_law
from .noise import NoiseModel, noise_unitary, pair_unitaries
from .pauli import PAULI_MATRICES
from .statevec import (
    NORM_TOL,
    StateVector,
    apply,
    basis_state,
    kron_all,
    operator_on_register,
    overlap_probability,
    postselect,
    product_state,
    projection_probabilities,
    sample_outcome,
)
from .zeno_code import ZenoCode, check_system_count, check_system_state, decode, encode, prepare
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
        """Probability that some comparison reads 2, summed over those outcomes, not 1 - p_0."""
        return math.fsum(self.probabilities[1:])


def _attach_environment(state: StateVector, n: int) -> StateVector:
    return product_state(state, basis_state(n))


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
    return code.syndrome_basis.T.real / 2


#: sigma_a on the system (low) bit of a (system, environment) pair, shape (4, 1, 4, 4); read-only.
_PAIR_FLIPS = np.stack([kron_all([np.eye(2)], start=p) for p in PAULI_MATRICES])[:, None]
_PAIR_FLIPS.flags.writeable = False


def _branch_factors(model: NoiseModel, epsilon: float) -> np.ndarray:
    """W[a, i] = sigma_a V_i sigma_a with sigma_a on system i, shape (4, n, 4, 4).

    The encoder is sum_a |a><a| (x) sigma_a^(x)n, so on ancilla branch a the
    encode-noise-decode sandwich is the product of these pair factors.
    """
    return _PAIR_FLIPS @ pair_unitaries(model, epsilon)[None] @ _PAIR_FLIPS


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
    check_system_state(code.n, psi)
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
    model: NoiseModel,
    epsilons,
    psi: StateVector | None = None,
    observable: str = "failure",
    rng_seed: int = 0,
) -> SweepTable:
    """Exact single-cycle statistics across a strength grid, with a power-law fit.

    Points whose observable sits at the numerical floor are excluded from
    the fit; if too few remain the table carries a "floor" status and no fit.
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


#: One test qubit's readout: column 0 reads it unchanged (+), column 1 flipped (-).
_COMPARISON = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

#: One system's (x, y) comparison readings for its local outcome o = x + 2y.
_PAIR_READINGS = ((0, 0), (2, 0), (0, 2), (2, 2))


@cache
def _two_time_halves() -> np.ndarray:
    """The strength-independent halves of one system's 16 x 16 block, joined; read-only, built once.

    The block's local qubits are x-test, y-test, system, environment.  The
    tests start in |+> and the environment in |0>; the x flip couples before
    the y flip, and they uncouple in reverse, so pre = F_y F_x and
    post = F_x F_y.  With the noise pair V (local index sys + 2 env) between
    them, the readout amplitudes of local outcome o for system input s are
    A(o)[out, s] = sum_{u, w} V[u, w] halves[4u + w, 8o + 2out + s], where
    halves = sum over the test states of (<o| post)[out, u] (pre |++, s, 0>)[w].
    """
    flips = {letter: operator_on_register(controlled_flip(letter).matrix, (test, 2), 4)
             for letter, test in (("x", 0), ("y", 1))}
    pre, post = flips["y"] @ flips["x"], flips["x"] @ flips["y"]
    start = kron_all([_COMPARISON[:, :1], _COMPARISON[:, :1], np.eye(2), np.eye(2)[:, :1]])  # |++, s, 0>
    before = (pre @ start).reshape(4, 4, 2)  # [sys env, tests, s]
    readout = kron_all([_COMPARISON, _COMPARISON])  # column o = x + 2y
    after = np.einsum("to,xtuv->oxuv", readout.conj(), post.reshape(4, 4, 4, 4))  # [o, out, sys env, tests]
    halves = np.einsum("oxut,wts->uwoxs", after, before).reshape(16, 32)
    halves.flags.writeable = False
    return halves


def _outcome_grams(model: NoiseModel, epsilon: float) -> np.ndarray:
    """G[p, o] = A_p(o)^dagger A_p(o), system p's 2 x 2 Gram matrix for local outcome o; shape (n, 4, 2, 2)."""
    n = model.n
    amps = (pair_unitaries(model, epsilon).reshape(n, 16) @ _two_time_halves()).reshape(n, 4, 4, 2)
    return amps.conj().swapaxes(-1, -2) @ amps


def _gram_probabilities(grams: np.ndarray, psi: StateVector) -> np.ndarray:
    """p(o) = <psi| (x)_p G[p, o_p] |psi> for every o = sum_p o_p 4^p, one system at a time.

    Each step contracts system p's ket and bra bits of psi psi^dagger with its
    four Gram matrices, so the array keeps 4^n entries throughout.
    """
    n = grams.shape[0]
    amps = psi.amplitudes
    rho = np.outer(amps, amps.conj())[..., None]  # [ket, bra, outcomes so far]
    for p in range(n):  # system p is the lowest bit still open
        d = 2 ** (n - 1 - p)
        rho = np.einsum("ots,asbtk->abok", grams[p], rho.reshape(d, 2, d, 2, -1)).reshape(d, d, -1)
    return rho.reshape(-1).real


@cache
def _two_time_labels(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per outcome, each pair's (x, y) comparison readings, 0 or 2; built once per n."""
    return tuple(tuple(_PAIR_READINGS[(o >> 2 * p) & 3] for p in range(n)) for o in range(4**n))


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
    the corresponding two-time difference read 2 instead of 0.  Outcome
    sum_p o_p 4^p has system p's x reading in bit 2p and its y reading in
    bit 2p + 1.

    Every flip and every noise pair acts inside one system's block of test,
    system and environment qubits, and the blocks commute, so only psi
    couples the systems: p(o) = <psi| (x)_p G_p(o_p) |psi>, with the Gram
    matrices of `_outcome_grams`.  No register of the 4n qubits is formed.
    The probabilities must sum to |psi|^2 within NORM_TOL.
    """
    n = disturbance.n
    check_system_count(n)
    if psi is None:
        psi = basis_state(n)
    check_system_state(n, psi)
    probs = _gram_probabilities(_outcome_grams(disturbance, epsilon), psi)
    defect = abs(math.fsum(probs) - psi.norm() ** 2)
    if not defect <= NORM_TOL:
        raise ContractViolation(f"two-time probabilities miss the state's norm by {defect:.3e}")
    sampled = sample_outcome(np.random.default_rng(rng_seed), probs)
    return TwoTimeResult(n, float(epsilon), _two_time_labels(n), probs, sampled)


#: Syndrome letter -> two-time outcome index for one system (x and y comparisons).
SYNDROME_TO_TWO_TIME = {0: 0, 1: 2, 2: 1, 3: 3}
