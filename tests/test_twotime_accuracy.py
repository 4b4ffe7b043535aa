"""Two-time probabilities against a 40-digit reference.

The reference runs the protocol on the whole 4n-qubit register in mpmath: it
applies each controlled flip and each pair's exp(i eps H_p), formed by
`mpmath.expm` from the same float couplings, one gate at a time, then reads
the test qubits in the +/- basis.  In the Zeno regime the smallest outcome
probabilities are about eps^(2n), so rounding relative to the O(1) outcome
is what a kernel must not let into them.  The reference holds a system
state; the kernel takes none, and must match it for a basis state and a
random one alike.
"""

import mpmath
import numpy as np
import pytest

from zenosim.heisenberg import controlled_flip
from zenosim.noise import random_model
from zenosim.pauli import PAULI_MATRICES
from zenosim.protocol import two_time_protocol
from zenosim.statevec import basis_state, random_state

DIGITS = 40
RELATIVE_TOL = 1e-13


def _mp(z) -> mpmath.mpc:
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def _mp_matrix(array) -> mpmath.matrix:
    return mpmath.matrix([[_mp(z) for z in row] for row in np.asarray(array)])


def _apply(state: list, matrix: mpmath.matrix, targets) -> list:
    """`matrix` on `targets`, its local index little-endian over them; identity elsewhere."""
    k = len(targets)
    mask = sum(1 << q for q in targets)
    out = list(state)
    for base in range(len(state)):
        if base & mask:
            continue
        index = [base | sum(((j >> t) & 1) << q for t, q in enumerate(targets)) for j in range(2**k)]
        amps = [state[i] for i in index]
        for row, i in enumerate(index):
            out[i] = mpmath.fsum(matrix[row, col] * amps[col] for col in range(2**k))
    return out


def mp_two_time_probabilities(model, epsilon: float, psi) -> list:
    """Every outcome's probability, with outcome bit 2p the x reading and 2p + 1 the y reading of system p."""
    n = model.n
    tests = 2 * n
    with mpmath.workdps(DIGITS):
        half = 1 / mpmath.sqrt(2)
        system = [_mp(a) for a in psi.amplitudes]
        state = [mpmath.mpc(0)] * 2 ** (4 * n)
        for t in range(2**tests):  # tests in |+>, environments in |0>
            for s in range(2**n):
                state[t | s << tests] = half**tests * system[s]
        flips = {letter: _mp_matrix(controlled_flip(letter).matrix) for letter in "xy"}

        def flip(letter, p):
            return _apply(state, flips[letter], (2 * p + (letter == "y"), tests + p))

        for letter in "xy":
            for p in reversed(range(n)):
                state = flip(letter, p)
        for p in range(n):
            h = sum(
                (_mp_matrix(np.kron(model.couplings[p, b], PAULI_MATRICES[b])) for b in range(4)),
                mpmath.zeros(4, 4),
            )
            pair = mpmath.expm(mpmath.mpc(0, 1) * mpmath.mpf(epsilon) * h)
            state = _apply(state, pair, (tests + p, tests + n + p))
        for letter in "yx":
            for p in range(n):
                state = flip(letter, p)
        probs = []
        for o in range(2**tests):
            total = mpmath.mpf(0)
            for rest in range(2 ** (4 * n - tests)):
                amp = mpmath.fsum((-1) ** bin(o & t).count("1") * state[t | rest << tests] for t in range(2**tests))
                total += abs(amp * half**tests) ** 2
            probs.append(total)
        return probs


@pytest.mark.parametrize("psi_kind", ["basis", "random"])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_probabilities_match_a_40_digit_reference(n, seed, psi_kind):
    model = random_model(n, seed)
    psi = basis_state(n) if psi_kind == "basis" else random_state(n, seed)
    for epsilon in (1e-5, 1e-3, 1e-2, 3e-2):
        exact = mp_two_time_probabilities(model, epsilon, psi)
        result = two_time_protocol(model, epsilon)
        pairs = [*zip(result.probabilities, exact), (result.other_outcome_mass, mpmath.fsum(exact[1:]))]
        for computed, reference in pairs:
            relative = abs(mpmath.mpf(float(computed)) - reference) / reference
            assert relative <= RELATIVE_TOL, (epsilon, float(computed), float(reference))
