"""Acceptance suite: one test per verification criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them inline).

Criterion 2b checks the exact law of the postselected infidelity 1 - F of
one cycle.  On outcome 0 the cycle applies the twirl
T(U) = 1/4 sum_a S_a U S_a to system|environment, with S_a the letter a on
every system qubit, and T keeps only system operators that commute with
every S_a.  For one data qubit that is the identity alone, so the state is
preserved exactly (1 - F = 0 to rounding).  For two, the first survivors
are the second-order pairs sigma_a^(i) sigma_a^(j), so
1 - F = c eps^4 + O(eps^5) with c = 1/4 ||(P_perp (x) 1) T(H^2) |psi, 0>||^2,
which the test derives from the couplings.  The quadratic law holds only
for the joint success-and-fidelity deficit, which test_protocol.py checks.
"""

import time
from functools import reduce

import numpy as np
import pytest

from dense_reference import evolve_exact, evolve_first_order
from zenosim.cli import main
from zenosim.fitting import fit_power_law
from zenosim.heisenberg import (
    ancilla_factor_expectation,
    effective_noise_check,
    encoder_matrix,
    run_verification,
    verify_encoder_conjugations,
    verify_flip_conjugation,
)
from zenosim.noise import NoiseModel, build_hamiltonian, random_model
from zenosim.output import data_lines
from zenosim.pauli import PAULI_MATRICES, conjugation_sign, syndrome_state
from zenosim.protocol import single_cycle, two_time_protocol, zeno_run
from zenosim.statevec import basis_state, operator_on_register, random_state
from zenosim.zeno_code import build_code

EPS_GRID = np.geomspace(1e-3, 3e-2, 8)
MODEL_SEED = 7
PSI_SEED = 3


def announce(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_encoder_algebra():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 5):
        cmat = encoder_matrix(n)
        m = n + 2
        for b in range(4):
            column = np.diag([complex(conjugation_sign(a, b)) for a in range(4)])
            for j in range(n):
                err = operator_on_register(PAULI_MATRICES[b], (2 + j,), m)
                lhs = cmat @ err @ cmat
                rhs = operator_on_register(column, (0, 1), m) @ err
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    basis = np.column_stack([syndrome_state(b) for b in range(4)])
    worst = max(worst, float(np.abs(basis.conj().T @ basis - np.eye(4)).max()))
    worst = max(worst, float(np.abs(basis[:, 0] - build_code(1).in_state).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    announce("1", ok, f"encoder conjugation identities, max defect {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def _protection_values(observable: str) -> dict[int, np.ndarray]:
    values = {}
    for n in (1, 2):
        code = build_code(n)
        model = random_model(n, seed=MODEL_SEED)
        psi = random_state(n, seed=PSI_SEED)
        column = []
        for eps in EPS_GRID:
            res = single_cycle(code, model, psi, 0, epsilon=float(eps))
            column.append(
                res.failure_probability if observable == "failure"
                else 1.0 - res.conditional_fidelity
            )
        values[n] = np.array(column)
    return values


def _protection_fits(observable: str):
    return {n: fit_power_law(EPS_GRID, v) for n, v in _protection_values(observable).items()}


def _quartic_prefactor(n: int) -> float:
    """c = 1/4 ||(P_perp (x) 1) T(H^2) |psi, 0>||^2 from a dense twirl of the couplings.

    1 - F = ||(P_perp (x) 1) T(U)|psi, 0>||^2 / ||T(U)|psi, 0>||^2, and the
    first term of T(U) = 1 + i eps T(H) - eps^2 T(H^2) / 2 + ... that leaves
    the span of |psi> is the eps^2 one, because T(H) holds only
    environment-only couplings.
    """
    model = random_model(n, seed=MODEL_SEED)
    psi = random_state(n, seed=PSI_SEED).amplitudes
    h = build_hamiltonian(model).matrix  # system on the low n qubits, environment above
    h_squared = h @ h
    env_identity = np.eye(2**n)
    flips = [np.kron(env_identity, reduce(np.kron, [p] * n)) for p in PAULI_MATRICES]
    twirl = sum(s @ h_squared @ s for s in flips) / 4
    start = np.kron(basis_state(n).amplitudes, psi)
    p_perp = np.kron(env_identity, np.eye(2**n) - np.outer(psi, psi.conj()))
    return float(np.linalg.norm(p_perp @ twirl @ start) ** 2 / 4)


def test_criterion_2a_failure_probability_slope():
    start = time.perf_counter()
    fits = _protection_fits("failure")
    elapsed = time.perf_counter() - start
    ok = all(f is not None and 1.95 <= f.slope <= 2.05 for f in fits.values())
    detail = ", ".join(f"n={n}: slope {f.slope:.4f}" for n, f in fits.items())
    announce("2a", ok and elapsed < 60.0, f"failure-probability scaling ({detail}), {elapsed:.2f}s")
    for n, fit in fits.items():
        assert fit is not None, f"n={n}: failure probabilities at numerical floor"
        assert 1.95 <= fit.slope <= 2.05, f"n={n}: slope {fit.slope}"
    assert elapsed < 60.0


def test_criterion_2b_postselected_infidelity_slope():
    start = time.perf_counter()
    deficits = _protection_values("infidelity")
    fit = fit_power_law(EPS_GRID, deficits[2])
    prefactor = _quartic_prefactor(2)
    elapsed = time.perf_counter() - start
    worst_one_qubit = float(np.abs(deficits[1]).max())
    slope = fit.slope if fit is not None else float("nan")
    perturbative = EPS_GRID <= 1e-2
    prefactor_defect = float(
        np.abs(deficits[2][perturbative] / EPS_GRID[perturbative] ** 4 / prefactor - 1.0).max()
    )
    ok = (
        worst_one_qubit <= 1e-12
        and 3.9 <= slope <= 4.1
        and prefactor_defect <= 0.01
        and elapsed < 60.0
    )
    announce(
        "2b", ok,
        f"postselected infidelity: n=1 max |1-F| {worst_one_qubit:.1e} (law: 0); "
        f"n=2 slope {slope:.4f} (law: 4), (1-F)/eps^4 off the prefactor "
        f"c={prefactor:.5f} by up to {prefactor_defect:.2e}, {elapsed:.2f}s",
    )
    assert worst_one_qubit <= 1e-12, (
        f"n=1: |1-F| reaches {worst_one_qubit:.3e}; the twirl leaves a single data qubit untouched"
    )
    assert fit is not None, "n=2: postselected infidelity at the numerical floor"
    assert 3.9 <= fit.slope <= 4.1, f"n=2: slope {fit.slope:.4f}, expected quartic"
    assert prefactor_defect <= 0.01, (
        f"n=2: (1-F)/eps^4 differs from the perturbative prefactor {prefactor:.5f} "
        f"by up to {prefactor_defect:.2%}"
    )
    assert elapsed < 60.0


def test_criterion_3_zeno_suppression():
    start = time.perf_counter()
    code = build_code(1)
    model = random_model(1, seed=7)
    failures = {
        k: zeno_run(code, model, 0.05, k, env_policy="reset", rng_seed=0).cumulative_failure
        for k in (1, 2, 4, 8, 16)
    }
    ratios = {k: failures[k] / failures[2 * k] for k in (1, 2, 4, 8)}
    elapsed = time.perf_counter() - start
    ok = all(abs(r - 2.0) <= 0.2 for r in ratios.values()) and elapsed < 60.0
    detail = ", ".join(f"P({k})/P({2 * k})={r:.3f}" for k, r in ratios.items())
    announce("3", ok, f"measurement-rate suppression ({detail}), {elapsed:.2f}s")
    for k, ratio in ratios.items():
        assert ratio == pytest.approx(2.0, rel=0.1), f"k={k}: ratio {ratio}"
    assert elapsed < 60.0


def test_criterion_4_first_order_consistency():
    model = random_model(1, seed=13)
    state = random_state(4, seed=14)
    diffs = [
        np.linalg.norm(
            evolve_exact(state, model, epsilon=float(e)).amplitudes
            - evolve_first_order(state, model, epsilon=float(e)).amplitudes
        )
        for e in EPS_GRID
    ]
    fit = fit_power_law(EPS_GRID, diffs)
    ok = fit is not None and 1.95 <= fit.slope <= 2.05
    announce("4", ok, f"truncation error exponent {fit.slope:.4f}" if fit else "fit failed")
    assert ok


def test_criterion_5_heisenberg_identities():
    worst = 0.0
    for a in "xyz":
        for b in "xyz":
            worst = max(worst, verify_flip_conjugation(a, b).max_defect)
    conj = {r.identity: r for r in verify_encoder_conjugations()}
    for name in ("encoder-conjugation[x]", "encoder-conjugation[y]", "encoder-conjugation[z]"):
        worst = max(worst, conj[name].max_defect)
    z_note = conj["encoder-conjugation[z]"].note
    for a in range(4):
        expected = 1.0 if a == 0 else 0.0
        worst = max(worst, abs(ancilla_factor_expectation(a) - expected))
    reports = {r.identity: r for r in run_verification()}
    for name in ("compact-form[x]", "compact-form[y]", "compact-form[z]"):
        worst = max(worst, reports[name].max_defect)
    ok = worst <= 1e-12 and "sigma_z" in z_note
    announce(
        "5", ok,
        f"operator-picture identities exact (max defect {worst:.2e}); "
        f"z-line discrepancy logged: {z_note}",
    )
    assert worst <= 1e-12
    assert "sigma_z" in z_note and "sigma_x" in z_note


def test_criterion_6_effective_noise_reduction():
    model = random_model(1, seed=23)
    defects = [effective_noise_check(model, float(e)) for e in EPS_GRID]
    fit = fit_power_law(EPS_GRID, defects)
    couplings = np.zeros((1, 4, 2, 2), dtype=complex)
    couplings[0, 0] = model.couplings[0, 0]
    pure_env = NoiseModel(1, couplings, 0.0)
    exact_defect = effective_noise_check(pure_env, 0.1)
    ok = fit is not None and 1.95 <= fit.slope <= 2.05 and exact_defect <= 1e-12
    announce(
        "6", ok,
        f"conditioned-noise defect exponent {fit.slope:.4f}, "
        f"identity-coupling defect {exact_defect:.2e}",
    )
    assert fit is not None and 1.95 <= fit.slope <= 2.05
    assert exact_defect <= 1e-12


def test_criterion_7_two_time_protocol():
    model = random_model(1, seed=7)
    psi = random_state(1, seed=9)
    quiet = two_time_protocol(model, 0.0, rng_seed=0)
    undisturbed_defect = abs(quiet.success_probability - 1.0)
    masses = [
        two_time_protocol(model, float(e), rng_seed=0).other_outcome_mass
        for e in EPS_GRID
    ]
    fit = fit_power_law(EPS_GRID, masses)
    code = build_code(1)
    equiv_defect = 0.0
    for eps in (1e-3, 1e-2, 3e-2):
        cycle = single_cycle(code, model, psi, 0, epsilon=eps)
        twotime = two_time_protocol(model, eps, rng_seed=0)
        equiv_defect = max(
            equiv_defect, abs(twotime.success_probability - cycle.success_probability)
        )
    ok = (
        undisturbed_defect <= 1e-12
        and fit is not None
        and 1.9 <= fit.slope <= 2.1
        and equiv_defect <= 1e-10
    )
    announce(
        "7", ok,
        f"undisturbed defect {undisturbed_defect:.2e}, disturbed-mass exponent "
        f"{fit.slope:.4f}, single-cycle equivalence defect {equiv_defect:.2e}",
    )
    assert undisturbed_defect <= 1e-12
    assert fit is not None and 1.9 <= fit.slope <= 2.1
    assert equiv_defect <= 1e-10


def test_criterion_8_determinism(tmp_path):
    specs = {
        "sweep": ["sweep", "--n", "1", "--seed", "7", "--eps", "1e-3..3e-2", "--points", "6"],
        "zeno": ["zeno", "--n", "1", "--seed", "7", "--total-eps", "0.05", "--k", "1,2,4"],
        "twotime": ["twotime", "--n", "1", "--seed", "7", "--eps", "1e-2,2e-2"],
    }
    all_ok = True
    for name, args in specs.items():
        paths = [tmp_path / f"{name}_{i}.csv" for i in (0, 1)]
        for path in paths:
            assert main(args + ["--out", str(path)]) == 0
        contents = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                lines = data_lines(fh.read().splitlines())
            contents.append([ln.replace(str(path), "OUT") for ln in lines])
        all_ok &= contents[0] == contents[1]
        assert contents[0] == contents[1], f"{name}: reruns differ"
    announce("8", all_ok, "identical config and seed reproduce byte-identical data rows")
