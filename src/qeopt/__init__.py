"""Qubit-efficient variational solver for Sherrington-Kirkpatrick spin glasses.

Stores N binary variables in q = d + log2(N/d) qubits by superposing N/d
groups of d spins over a label register, optimizes a layered ansatz whose
phase separator is rebuilt from measurement statistics of the previous
layer, and compiles the resulting circuits to an {Rx(pi/2), Rz, iSWAP, X}
native gate set.
"""

from qeopt.encoding import EncodingScheme, make_scheme
from qeopt.problem import SKInstance, generate_sk, example_instance_n4

__all__ = [
    "EncodingScheme",
    "make_scheme",
    "SKInstance",
    "generate_sk",
    "example_instance_n4",
]

__version__ = "0.1.0"
