"""End-to-end protection experiments.

A cycle is prepare -> encode -> noisy evolution -> decode -> ancilla
measurement.  All reported statistics are exact Born probabilities on the
postselected (no-error) branch; sampling is layered on top purely for
realism and is always seeded.

Single cycles and sweeps evolve the full ancilla|system|environment state
vector under the dense noise unitary; the encoder acts on it as four
branch words.  The two-time protocol and repeated-measurement runs never
build the full state; the two-time distribution is a product of one
weight per system and outcome.  The noise factorizes as
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
from .noise import NoiseModel, noise_unitary, pair_deviations, pair_unitaries
from .pauli import PAULI_MATRICES
from .statevec import (
    NORM_TOL,
    StateVector,
    apply,
    basis_state,
    kron_all,
    overlap_probability,
    postselect,
    product_state,
    projection_probabilities,
    sample_outcome,
)
from .zeno_code import ZenoCode, check_system_count, check_system_state, decode, encode, prepare


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


#: Syndrome letter -> two-time outcome index for one system (x and y comparisons).
SYNDROME_TO_TWO_TIME = {0: 0, 1: 2, 2: 1, 3: 3}

#: One system's (x, y) comparison readings for its local outcome o = x + 2y.
_PAIR_READINGS = ((0, 0), (2, 0), (0, 2), (2, 2))

#: _HALF_TRACES[2 s_out + s_in, o] = sigma_c[s_in, s_out] / 2 for the letter c that
#: outcome o reads, so a pair operator's system indices contracted with column o
#: give 1/2 tr_sys(sigma_c X); read-only.
_HALF_TRACES = np.stack(
    [PAULI_MATRICES[c].T.reshape(4) for c in sorted(SYNDROME_TO_TWO_TIME, key=SYNDROME_TO_TWO_TIME.get)],
    axis=1,
) / 2
_HALF_TRACES.flags.writeable = False


def _outcome_weights(model: NoiseModel, epsilon: float) -> np.ndarray:
    """g[p, o] = ||E_c |0>_env||^2 for the letter c that system p's local outcome o reads; shape (n, 4).

    With V_p = sum_c E_c (x) sigma_c, E_c = 1/2 tr_sys(sigma_c V_p).  Only the
    columns with the environment entering in |0> are read, from the deviation
    V_p - 1: its identity part adds |0>_env to E_0 alone, since tr sigma_c = 0
    for every other letter, so the small weights never pass through 1.
    """
    n = model.n
    deviation = pair_deviations(model, epsilon).reshape(n, 2, 2, 2, 2)[..., 0, :]  # [p, env out, sys out, sys in]
    letters = deviation.reshape(n, 2, 4) @ _HALF_TRACES  # [p, env out, o]: E_c |0>_env
    letters[:, 0, SYNDROME_TO_TWO_TIME[0]] += 1.0
    return (np.abs(letters) ** 2).sum(axis=1)


@cache
def _two_time_labels(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per outcome, each pair's (x, y) comparison readings, 0 or 2; built once per n."""
    return tuple(tuple(_PAIR_READINGS[(o >> 2 * p) & 3] for p in range(n)) for o in range(4**n))


def two_time_protocol(disturbance: NoiseModel, epsilon: float, rng_seed: int) -> TwoTimeResult:
    """Compare each system's x and y components at two times with test qubits.

    Per system, one test qubit couples through an x-type controlled flip
    before and after the disturbance window and another through a y-type
    flip at nested instants in between; a test qubit found flipped means
    the corresponding two-time difference read 2 instead of 0.  Outcome
    sum_p o_p 4^p has system p's x reading in bit 2p and its y reading in
    bit 2p + 1.

    The flips twirl each pair's noise V_p = sum_c E_c (x) sigma_c, so system
    p's readout reports the letter c that hit it and nothing about the
    protected state: p(o) = prod_p g_p(o_p), with the weights of
    `_outcome_weights`, whatever the state.  Each system's weights must sum
    to 1 within NORM_TOL, as unitarity of V_p gives.
    """
    n = disturbance.n
    check_system_count(n)
    weights = _outcome_weights(disturbance, epsilon)
    defects = np.abs(weights.sum(axis=1) - 1.0)
    worst = int(np.argmax(defects))
    if not defects[worst] <= NORM_TOL:
        raise ContractViolation(f"system {worst}'s two-time weights miss 1 by {defects[worst]:.3e}")
    probs = kron_all(weights, start=(1.0,))  # system 0 on the lowest base-4 digit
    sampled = sample_outcome(np.random.default_rng(rng_seed), probs)
    return TwoTimeResult(n, float(epsilon), _two_time_labels(n), probs, sampled)
