"""Exact simulator and verifier for a two-ancilla measurement-based error-prevention code."""

from .noise import random_model
from .protocol import single_cycle, zeno_run
from .statevec import basis_state, random_state
from .zeno_code import build_code

__version__ = "0.1.0"
