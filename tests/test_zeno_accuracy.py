"""Cumulative zeno failure against a 40-digit reference.

The reference runs `zeno_run` in mpmath.  Each pair factor
V_i = exp(i eps H_i) comes from `mpmath.expm` of the same float couplings;
encoder branch a applies (x)_i sigma_a V_i sigma_a to the system|environment
block, and the syndrome-b branch is 1/4 sum_a chi_b(a) of those.  Under
"persist" one joint state goes through every cycle; under "reset" the
system's density matrix goes through the branch's Kraus operators, the
environment entering in |0...0> each cycle.  In the Zeno regime a cycle fails
with probability about eps^2, so forming 1 - prod p_0 in floats would leave
only the digits of that product above the rounding of the 1.
"""

import itertools

import mpmath
import numpy as np
import pytest

from zenosim.noise import random_model
from zenosim.pauli import PAULI_MATRICES, SYNDROME_BASIS
from zenosim.protocol import zeno_run
from zenosim.statevec import basis_state
from zenosim.zeno_code import build_code

DIGITS = 40
RELATIVE_TOL = 1e-8


def _mp_matrix(array) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(complex(z).real, complex(z).imag) for z in row] for row in np.asarray(array)])


def _local(index: int, i: int, n: int) -> int:
    """Pair i's local index sys + 2 * env within index env * 2^n + sys."""
    return ((index >> i) & 1) + 2 * ((index >> (n + i)) & 1)


def _branch_operators(model, epsilon) -> list:
    """M_b = 1/4 sum_a chi_b(a) (x)_i sigma_a V_i sigma_a on index env * 2^n + sys, for b = 0..3."""
    n = model.n
    words = []
    for a in range(4):
        flip = _mp_matrix(np.kron(np.eye(2), PAULI_MATRICES[a]))  # local index sys + 2 * env
        pairs = []
        for i in range(n):
            h = sum(
                (_mp_matrix(np.kron(model.couplings[i, b], PAULI_MATRICES[b])) for b in range(4)),
                mpmath.zeros(4, 4),
            )
            pairs.append(flip * mpmath.expm(mpmath.mpc(0, 1) * mpmath.mpf(epsilon) * h) * flip)
        word = mpmath.zeros(4**n, 4**n)
        for row, col in itertools.product(range(4**n), repeat=2):
            word[row, col] = mpmath.fprod(pair[_local(row, i, n), _local(col, i, n)] for i, pair in enumerate(pairs))
        words.append(word)
    signs = SYNDROME_BASIS.T.real / 2  # chi_b(a) / 4, exact in floats
    return [sum((mpmath.mpf(signs[b, a]) * words[a] for a in range(4)), mpmath.zeros(4**n, 4**n)) for b in range(4)]


def _norm2(vector) -> mpmath.mpf:
    return mpmath.fsum(abs(z) ** 2 for z in vector)


def mp_cumulative_failure(model, total_epsilon: float, cycles: int, env_policy: str, psi) -> mpmath.mpf:
    """1 - prod_k p_0 of a k-cycle run, with every step in DIGITS-digit arithmetic."""
    dim = 2**model.n
    with mpmath.workdps(DIGITS):
        branches = _branch_operators(model, mpmath.mpf(total_epsilon) / cycles)
        system = mpmath.matrix([mpmath.mpc(complex(z).real, complex(z).imag) for z in psi.amplitudes])
        success = mpmath.mpf(1)
        if env_policy == "persist":
            joint = mpmath.matrix([*system, *[mpmath.mpc(0)] * (dim * dim - dim)])  # environment in |0...0>
            for _ in range(cycles):
                no_error = branches[0] * joint
                p0 = _norm2(no_error)
                joint = no_error / mpmath.sqrt(p0)
                success *= p0
        else:
            rho = system * system.H
            kraus = [branches[0][e * dim:(e + 1) * dim, 0:dim] for e in range(dim)]
            for _ in range(cycles):
                rho = sum((k * rho * k.H for k in kraus), mpmath.zeros(dim, dim))
                p0 = mpmath.re(sum(rho[s, s] for s in range(dim)))
                rho = rho / p0
                success *= p0
        return 1 - success


@pytest.mark.parametrize("env_policy", ["reset", "persist"])
@pytest.mark.parametrize("n", [1, 2])
def test_cumulative_failure_matches_a_40_digit_reference(n, env_policy):
    code, model, psi = build_code(n), random_model(n, 0), basis_state(n)
    for total_epsilon in (1e-2, 1e-4, 1e-6):
        for cycles in (1, 16):
            exact = mp_cumulative_failure(model, total_epsilon, cycles, env_policy, psi)
            computed = zeno_run(code, model, total_epsilon, cycles, env_policy, 0, psi).cumulative_failure
            relative = abs(mpmath.mpf(computed) - exact) / exact
            assert relative <= RELATIVE_TOL, (total_epsilon, cycles, computed, float(exact))


@pytest.mark.parametrize("env_policy", ["reset", "persist"])
@pytest.mark.parametrize("n", [1, 2])
def test_cumulative_failure_is_accurate_to_rounding(n, env_policy):
    # every term of a branch b > 0 carries a small letter amplitude, so no digit is lost to the 1
    code, model, psi = build_code(n), random_model(n, 0), basis_state(n)
    for total_epsilon in (1e-2, 1e-4, 1e-6, 1e-8):
        for cycles in (1, 16):
            exact = mp_cumulative_failure(model, total_epsilon, cycles, env_policy, psi)
            computed = zeno_run(code, model, total_epsilon, cycles, env_policy, 0, psi).cumulative_failure
            relative = abs(mpmath.mpf(computed) - exact) / exact
            assert relative <= 1e-13, (total_epsilon, cycles, computed, float(exact))
