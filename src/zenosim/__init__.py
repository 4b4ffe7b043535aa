"""Exact simulator and verifier for a two-ancilla measurement-based error-prevention code."""

from .errors import ConfigError, ContractViolation
from .pauli import (
    PauliString,
    conjugate_by_encoder,
    conjugation_sign,
    pauli_multiply,
    syndrome_state,
)
from .statevec import (
    DenseOperator,
    StateVector,
    apply,
    basis_state,
    branch_vector,
    hermitian_exp,
    operator_on_register,
    overlap_probability,
    postselect,
    product_state,
    projection_probabilities,
    random_state,
)
from .zeno_code import ZenoCode, build_code, decode, encode, prepare
from .noise import (
    NoiseModel,
    build_hamiltonian,
    load_model,
    model_from_dict,
    model_to_dict,
    noise_unitary,
    random_model,
    save_model,
    zero_model,
)
from .protocol import (
    CycleResult,
    RunResult,
    SweepTable,
    TwoTimeResult,
    epsilon_sweep,
    single_cycle,
    two_time_protocol,
    zeno_run,
)
from .heisenberg import (
    IdentityReport,
    ancilla_factor,
    ancilla_factor_expectation,
    controlled_flip,
    effective_noise_check,
    encoder_matrix,
    flip_product_encoder,
    run_verification,
    verify_encoder_conjugations,
    verify_flip_conjugation,
)

__version__ = "0.1.0"
