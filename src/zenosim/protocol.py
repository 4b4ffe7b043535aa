"""End-to-end protection experiments.

A cycle is prepare -> encode -> noisy evolution -> decode -> ancilla
measurement.  All reported statistics are exact Born probabilities on the
postselected (no-error) branch.  Single cycles and zeno runs draw a
syndrome sample; two-time runs draw none.

Single cycles and sweeps encode the ancilla|system state as four branch
words and evolve it under only the fresh-environment columns of the dense
noise unitary: the environment enters in |0...0>, so one (4^n, c) by (c, 4)
product of the c = `fresh_columns(n)` columns that `noise_unitary` returns
with the encoded [system, ancilla] rows is the whole evolved register.  The
two-time protocol and repeated-measurement runs never build the full
state; the two-time distribution is a product of one weight per system
and outcome.  The noise factorizes as
exp(i eps H) = (x)_i V_i over (system i, environment i) pairs, and the encoder is
sum_a |a><a| (x) sigma_a^(x)n, so the syndrome-b branch of one cycle is
1/4 sum_a chi_b(a) (x)_i sigma_a V_i sigma_a, with chi_b(a) =
`conjugation_sign(a, b)`, twice the syndrome basis entry [a, b].

Repeated-measurement runs split the total noise strength over k cycles.
Both policies read the noise as per-pair Pauli letters, built from the pair
deviations V_i - 1 (`_letter_amplitudes`): writing each <e'|V_i|e>_env in
Paulis, branch b keeps exactly the Pauli strings whose letters XOR to b, so
every term of a branch b > 0 carries a small letter and no O(1) part cancels.
Both read them through one (16, 16) class transfer per pair (`_pair_transfers`):
letter c = k ^ j takes XOR class j to class k and carries sigma_c.
Under the default "reset" policy each cycle sees a fresh environment, so a
cycle is a channel on the system's density matrix, read from the transfer's
e = 0 slice.  Recursions over the pairs that group strings by their XOR class
build, once per run, the syndrome effects G_b = sum_e K_{b,e}^dagger K_{b,e}
(from the slice's Gram; checked to sum to 1) and the no-error Kraus operators
K_{0,e} (from the slice).  Each cycle is then p_b = tr(G_b rho) and
rho <- sum_e K_{0,e} rho K_{0,e}^dagger / p_0.
"persist" keeps one environment entangled across the whole run and carries
the joint system|environment pure state, each pair's two qubits next to each
other.  A cycle carries the four branches as the XOR classes of one array and
applies the whole transfer pair by pair (`_persist_policy_run`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContractViolation
from .fitting import PowerLawFit, fit_power_law
from .noise import NoiseModel, fresh_columns, noise_unitary, pair_deviations
from .pauli import PAULI_MATRICES, SYNDROME_BASIS
from .statevec import (
    NORM_TOL,
    StateVector,
    basis_state,
    kron_all,
    overlap_probability,
    postselect,
    projection_probabilities,
    sample_outcomes,
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
    """Joint outcome distribution of the paired two-time comparisons, in `two_time_columns` order."""

    epsilon: float
    probabilities: np.ndarray

    @property
    def success_probability(self) -> float:
        """Probability that every comparison reads 0 (no change detected)."""
        return float(self.probabilities[0])

    @property
    def other_outcome_mass(self) -> float:
        """Probability that some comparison reads 2, summed over those outcomes, not 1 - p_0."""
        return math.fsum(self.probabilities.tolist()[1:])


def single_cycle(
    code: ZenoCode,
    model: NoiseModel,
    psi: StateVector,
    rng_seed: int,
    epsilon: float,
) -> CycleResult:
    """Run one protection cycle and report its exact statistics.

    Rows [s, a] of the encoded state are the rows of the register's
    (system|environment block, ancilla) view where the environment is
    |0...0>; every other row is zero, so one (4^n, c) by (c, 4) product
    with the c columns of `noise_unitary` is the whole evolved register.
    At n = 1 it runs over all four, against zero rows for environment 1,
    for the rounding reason of `fresh_columns`.  For a basis psi each
    ancilla column holds one nonzero amplitude, so the product adds no
    terms and matches the dense register bit for bit; for other states the
    sums run over the columns in their natural order.

    The syndrome sample drawn from `rng_seed` is recorded but never enters
    the probabilities or the fidelity, which are computed from the full
    postselected branch.
    """
    if model.n != code.n:
        raise ContractViolation(f"noise model has n={model.n} but code has n={code.n}")
    reference = prepare(code, psi)
    rows = np.zeros((fresh_columns(code.n), 4), dtype=complex)
    rows[: 2**code.n] = encode(code, reference).amplitudes.reshape(-1, 4)
    state = decode(code, StateVector(noise_unitary(model, epsilon) @ rows))
    drift = abs(state.norm() - reference.norm())
    if not drift <= NORM_TOL:  # the unitaries kept the norm: an O(state) check
        raise ContractViolation(f"evolution changed the state's norm by {drift:.3e}")
    probs = projection_probabilities(state, (0, 1), SYNDROME_BASIS)
    _, post = postselect(state, (0, 1), SYNDROME_BASIS[:, 0])
    fidelity = overlap_probability(post, reference)
    return _cycle_result(probs, fidelity, sample_outcomes(np.random.default_rng(rng_seed), probs[None])[0])


def _no_error_weight(probs: np.ndarray) -> float:
    p0 = float(probs[0])
    if not p0 > 1e-300:
        raise ContractViolation("postselection branch has zero weight")
    return p0


def _log_success(cycle: CycleResult) -> float:
    """log p_0 as log1p(-(p_1 + p_2 + p_3)), with no cancellation while the failure is small.

    From 1/2 on, p_0 itself is accurate and the sum may round to 1 or above, so log p_0 is taken directly.
    """
    failure = math.fsum(cycle.syndrome_probabilities[1:])
    return math.log1p(-failure) if failure < 0.5 else math.log(cycle.success_probability)


def _cycle_result(probs: np.ndarray, fidelity: float, sampled: int) -> CycleResult:
    p0 = float(probs[0])
    return CycleResult(p0, float(fidelity), float(1.0 - p0), tuple(float(p) for p in probs), int(sampled))


#: _HALF_TRACES[2 s_out + s_in, c] = sigma_c[s_in, s_out] / 2, so a pair operator's
#: system indices contracted with column c give 1/2 tr_sys(sigma_c X); read-only.
_HALF_TRACES = np.stack([p.T.reshape(4) for p in PAULI_MATRICES], axis=1) / 2
_HALF_TRACES.flags.writeable = False


def _letter_amplitudes(model: NoiseModel, epsilon: float) -> np.ndarray:
    """letters[i, e', e, c] = 1/2 tr_sys(sigma_c <e'|V_i|e>_env), so <e'|V_i|e> = sum_c letters[i, e', e, c] sigma_c.

    Shape (n, 2, 2, 4); the reset and two-time kernels read the e = 0 slice,
    where the environment enters in |0>.  The letters come from the deviation
    V_i - 1: its identity part adds 1 to letters[i, e, e, 0] alone, since
    tr sigma_c = 0 for every other letter, so the small amplitudes never pass
    through 1.
    """
    n = model.n
    deviation = pair_deviations(model, epsilon).reshape(n, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)  # [i, e', e, s', s]
    letters = deviation.reshape(n, 2, 2, 4) @ _HALF_TRACES
    letters[:, 0, 0, 0] += 1.0
    letters[:, 1, 1, 0] += 1.0
    return letters


def _pair_transfer() -> tuple[np.ndarray, np.ndarray]:
    """[(k, e', s'), (j, e, s)] -> flat [e', e, c] of the letter amplitudes, and sigma_c[s', s]; read-only."""
    ket, env_out, s_out, ket_from, env, s = np.indices((4, 2, 2, 4, 2, 2))
    letter = ket ^ ket_from
    index, paulis = 8 * env_out + 4 * env + letter, np.stack(PAULI_MATRICES)[letter, s_out, s]
    index.flags.writeable = paulis.flags.writeable = False
    return index.reshape(16, 16), paulis.reshape(16, 16)


_PAIR_TRANSFER = _pair_transfer()


def _pair_transfers(model: NoiseModel, epsilon: float) -> np.ndarray:
    """T[i, (k, e', s'), (j, e, s)] = letters[i, e', e, k ^ j] sigma_(k ^ j)[s', s], shape (n, 16, 16).

    Pair i's class transfer, the one both zeno policies read: persist the whole
    of it, reset its fresh-environment slice (`_fresh_transfers`).
    """
    index, paulis = _PAIR_TRANSFER
    return np.take(_letter_amplitudes(model, epsilon).reshape(model.n, 16), index, axis=1) * paulis


def _fresh_transfers(model: NoiseModel, epsilon: float) -> np.ndarray:
    """The e = 0 slice of `_pair_transfers` as [i, k, s', e', s, j]: letters[i, e', 0, k ^ j] sigma_(k ^ j)[s', s]."""
    return _pair_transfers(model, epsilon).reshape(-1, 4, 2, 2, 4, 2, 2)[..., 0, :].transpose(0, 1, 3, 2, 5, 4)


def _class_sums(transfer: np.ndarray, keep: slice) -> np.ndarray:
    """Sum over letter strings of the pairs' tensor products, grouped by the XOR of the letters.

    transfer[i, k, *legs, j] is pair i's part for the letter that takes class j
    to class k, with two-valued legs; the result is [k, *legs] over all pairs,
    pair i on bit i of each leg, with only the classes `keep` formed at the last
    pair.  Each pair is one (classes * 2^legs, classes) by (classes, 2^(i legs))
    product.
    """
    n, classes, legs = transfer.shape[0], transfer.shape[-1], transfer.ndim - 3
    order = (0, *(axis for leg in range(1, legs + 1) for axis in (leg, leg + legs)))
    first = transfer[0] if n > 1 else transfer[0, keep]
    acc = first[..., 0].reshape(len(first), -1)  # pair 0 alone: its letter k takes class 0 to k
    for i in range(1, n):
        step = transfer[i] if i < n - 1 else transfer[i, keep]
        acc = (step.reshape(-1, classes) @ acc).reshape(-1, *[2] * legs, *[2**i] * legs)
        acc = acc.transpose(order).reshape(len(acc), -1)
    return acc.reshape(-1, *[2**n] * legs)


def _syndrome_effects(fresh: np.ndarray) -> np.ndarray:
    """G[b] = sum_e K[b, e]^dagger K[b, e], shape (4, 2^n, 2^n), checked to sum to 1 within NORM_TOL.

    With <e_i|V_i|0> = sum_c letters[i, e_i, c] sigma_c, the encoder's signs
    keep in branch b exactly the system Pauli strings whose letters XOR to b,
    so K[b, e] = sum over those strings of (x)_i letters[i, e_i, c_i] sigma_c_i.
    The recursion carries 16 (bra class, ket class) parts: per pair the Gram of `fresh` (`_fresh_transfers`)
    over its outputs (s', e'), sum_e conj(letters[i, e, c']) letters[i, e, c] times sigma_c'^dagger sigma_c.
    Every string of a branch b > 0 has a letter other than the identity on each
    side, so each term of G[b > 0] carries a small amplitude twice and no O(1)
    part cancels.
    """
    n = len(fresh)
    kets = fresh.transpose(0, 2, 3, 1, 4, 5).reshape(n, 4, 32)  # [i, (s', e'), (k, s, j)]
    gram = (kets.conj().swapaxes(-1, -2) @ kets).reshape(n, 4, 2, 4, 4, 2, 4)  # [i, k', s, j', k, t, j]
    effects = _class_sums(gram.transpose(0, 1, 4, 2, 5, 3, 6).reshape(n, 16, 2, 2, 16), slice(None, None, 5))
    defect = np.abs(effects.sum(axis=0) - np.eye(effects.shape[-1])).max()
    if not defect <= NORM_TOL:
        raise ContractViolation(f"reset-policy syndrome effects miss the identity by {defect:.3e}")
    return effects


def _no_error_kraus(fresh: np.ndarray) -> np.ndarray:
    """K[s, e, t] = <s|K[0, e]|t>, the no-error Kraus operators, shape (2^n, 2^n, 2^n).

    The ket-only recursion of `_syndrome_effects`, over the fresh transfer
    `fresh` itself: four classes, and the last pair forms class 0 only.
    """
    return _class_sums(fresh, slice(0, 1))[0]


def _reset_channel(model: NoiseModel, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What a reset-policy cycle reads, built once per run: G^T flattened, K[0] as rows and its conjugate.

    Shapes (4, 4^n), (4^n, 2^n) and (2^n, 4^n); see `_reset_step`.
    """
    fresh = _fresh_transfers(model, epsilon)
    effects = _syndrome_effects(fresh)
    kraus = _no_error_kraus(fresh)
    dim = kraus.shape[0]
    return effects.swapaxes(-1, -2).reshape(4, -1), kraus.reshape(dim * dim, dim), kraus.conj().reshape(dim, -1)


def _reset_step(channel: tuple, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p_b = tr(G_b rho) and the normalized no-error rho, sum_e K[0, e] rho K[0, e]^dagger / p_0."""
    transposed_effects, kraus_rows, kraus_conj = channel
    probs = (transposed_effects @ rho.ravel()).real
    return probs, (kraus_rows @ rho).reshape(len(rho), -1) @ kraus_conj.T / _no_error_weight(probs)


def _reset_policy_run(model, eps_c, cycles, psi) -> tuple[list, list]:
    """Each cycle's syndrome probabilities and conditional fidelity."""
    channel = _reset_channel(model, eps_c)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    probs, fidelities = [], []
    for _ in range(cycles):
        p, rho = _reset_step(channel, rho)
        probs.append(p)
        fidelities.append((psi.amplitudes.conj() @ rho @ psi.amplitudes).real)
    return probs, fidelities


@cache
def _joint_index(n: int) -> np.ndarray:
    """index[e, s]: where amplitude (environment e, system s) sits in the pair-interleaved layout; read-only.

    Bit i of s goes to bit 2i and bit i of e to bit 2i + 1, so pair i's local
    index sys + 2 * env is base-4 digit i.  Shape (2^n, 2^n).
    """
    bits = np.arange(2**n)
    spread = sum(((bits >> i) & 1) << (2 * i) for i in range(n))
    index = 2 * spread[:, None] + spread
    index.flags.writeable = False
    return index


def _persist_policy_run(model, eps_c, cycles, psi) -> tuple[list, list]:
    """Each cycle's syndrome probabilities and conditional fidelity.

    The four branches are the XOR classes of one (4, 4^n) array, and pair i is
    one (16, 16) by (16, 4^(n-1)) product with its `_pair_transfers` matrix;
    a cycle starts in class 0, so pair 0 reads that class only.  The joint
    state is pair-interleaved (`_joint_index`): each product reads pair i's
    digit on the last axis and writes it back as the most significant, which
    brings the next pair down.  Two (16, 4^(n-1)) buffers serve every pair and
    cycle; the first also holds |B_b|^2 at the end of a cycle.

    The fidelity is 1 - ||Q B_0||^2 / p_0, with Q = 1 - |psi><psi| / ||psi||^2 on
    the system and B_0 the no-error branch: a sum of squares, so it cannot exceed 1.
    """
    n = model.n
    transfers = _pair_transfers(model, eps_c)
    index = _joint_index(n)
    rest = 4 ** (n - 1)
    joint = np.zeros(4**n, dtype=complex)  # environment in |0...0>
    joint[index[0]] = psi.amplitudes
    psi_scaled = psi.amplitudes / np.vdot(psi.amplitudes, psi.amplitudes).real  # Q = 1 - |psi_scaled><psi|
    gathered, classes = np.empty((16, rest), dtype=complex), np.empty((16, rest), dtype=complex)
    weights = gathered[:8].view(float).reshape(4, -1)  # |B_b|^2, once the pairs are done with `gathered`
    probs, fidelities = [], []
    for _ in range(cycles):
        np.matmul(transfers[0, :, :4], joint.reshape(rest, 4).T, out=classes)
        for transfer in transfers[1:]:
            np.copyto(gathered.reshape(4, 4, rest), classes.reshape(4, rest, 4).swapaxes(1, 2))
            np.matmul(transfer, gathered, out=classes)
        branches = classes.reshape(4, -1)
        np.abs(branches, out=weights)
        probs.append(np.square(weights, out=weights).sum(axis=1))
        p0 = _no_error_weight(probs[-1])
        off_psi = branches[0][index]  # [environment, system]
        off_psi -= np.outer(off_psi @ psi.amplitudes.conj(), psi_scaled)
        fidelities.append(1.0 - (np.abs(off_psi) ** 2).sum() / p0)
        joint = branches[0] / np.sqrt(p0)
    return probs, fidelities


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
    failure shrinks roughly like 1/k.  It is 1 - prod_k p_0, formed from each
    cycle's p_1 + p_2 + p_3 rather than by subtracting the product from 1.
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
    runner = _reset_policy_run if env_policy == "reset" else _persist_policy_run
    probs, fidelities = runner(model, eps_c, cycles, psi)
    sampled = sample_outcomes(np.random.default_rng(rng_seed), probs)
    per_cycle = [_cycle_result(*cycle) for cycle in zip(probs, fidelities, sampled)]
    cumulative = float(np.prod([c.success_probability for c in per_cycle]))
    return RunResult(
        cycles=cycles,
        epsilon_per_cycle=eps_c,
        env_policy=env_policy,
        per_cycle=tuple(per_cycle),
        cumulative_success=cumulative,
        cumulative_failure=-math.expm1(math.fsum(_log_success(c) for c in per_cycle)),
        final_conditional_fidelity=per_cycle[-1].conditional_fidelity,
    )


def epsilon_sweep(
    code: ZenoCode,
    model: NoiseModel,
    epsilons,
    psi: StateVector | None = None,
    observable: str = "failure",
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
        cycle = single_cycle(code, model, psi, 0, epsilon=float(e))  # no row reads its syndrome draw
        rows.append(SweepRow(float(e), cycle.failure_probability, 1.0 - cycle.conditional_fidelity))
    values = [r.failure_probability if observable == "failure" else r.infidelity for r in rows]
    fit = fit_power_law(eps, values)
    status = "ok" if fit is not None else "floor"
    return SweepTable(observable, tuple(rows), fit, status)


#: Syndrome letter -> two-time outcome index for one system (x and y comparisons).
SYNDROME_TO_TWO_TIME = {0: 0, 1: 2, 2: 1, 3: 3}

#: The letter that each local outcome o reads: the inverse of SYNDROME_TO_TWO_TIME.
_OUTCOME_LETTERS = sorted(SYNDROME_TO_TWO_TIME, key=SYNDROME_TO_TWO_TIME.get)


def _outcome_weights(model: NoiseModel, epsilon: float) -> np.ndarray:
    """g[p, o] = ||E_c |0>_env||^2 for the letter c that system p's local outcome o reads; shape (n, 4).

    With V_p = sum_c E_c (x) sigma_c, E_c |0>_env is the column
    `_letter_amplitudes(...)[p, :, 0, c]`, so the small weights never pass through 1.
    """
    return (np.abs(_letter_amplitudes(model, epsilon)[:, :, 0]) ** 2).sum(axis=1)[:, _OUTCOME_LETTERS]


@cache
def two_time_columns(n: int) -> tuple[str, ...]:
    """Each outcome's column name, "p_<x><y>_..." with system p's x and y readings, 0 or 2; built once per n.

    Outcome o holds system p's x reading in bit 2p and its y reading in bit 2p + 1.
    """
    return tuple(
        "p_" + "_".join(f"{2 * (o >> 2 * p & 1)}{2 * (o >> 2 * p + 1 & 1)}" for p in range(n)) for o in range(4**n)
    )


def two_time_protocol(disturbance: NoiseModel, epsilon: float) -> TwoTimeResult:
    """Compare each system's x and y components at two times with test qubits.

    Per system, one test qubit couples through an x-type controlled flip
    before and after the disturbance window and another through a y-type
    flip at nested instants in between; a test qubit found flipped means
    the corresponding two-time difference read 2 instead of 0.  Outcome
    sum_p o_p 4^p has system p's x reading in bit 2p and its y reading in
    bit 2p + 1, as `two_time_columns` names it.  The result is the exact
    distribution; no outcome is sampled.

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
    return TwoTimeResult(float(epsilon), kron_all(weights, start=(1.0,)))  # system 0 on the lowest base-4 digit
