"""Dense reference simulator, independent of the program under test.

Every gate is a full ``2**n x 2**n`` matrix built here by Kronecker products
of 2x2 factors (qubit 0 is the leftmost factor, the most significant bit of
a basis index), and a state is evolved by one dense matrix product per gate.
Nothing is imported from ``repro``: the benchmark reads a circuit's gate
list (names, wires, angles) and hands it over as plain tuples, so a fault in
the program's own kernels cannot hide in the reference.

It is meant for checks on small subsets, up to 8 qubits.  Run this file to
execute its self-tests on hand-computed cases.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

MAX_QUBITS = 8

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)
_PAULI = {"I": _I, "X": _X, "Y": _Y, "Z": _Z}


def _rot(pauli: np.ndarray, theta: float) -> np.ndarray:
    """``exp(-i theta P / 2)`` for a Pauli ``P`` (``P**2 = I``)."""
    return np.cos(theta / 2) * _I - 1j * np.sin(theta / 2) * pauli


def _one_qubit(name: str, theta: float | None) -> np.ndarray:
    if name == "h":
        return (_X + _Z) / np.sqrt(2)
    if name in ("x", "y", "z", "i"):
        return _PAULI[name.upper()]
    if name == "s":
        return np.diag([1, 1j])
    if name == "sdg":
        return np.diag([1, -1j])
    if name in ("rx", "ry", "rz"):
        return _rot(_PAULI[name[1].upper()], float(theta))
    raise KeyError(f"reference simulator has no one-qubit gate {name!r}")


def _terms(name: str, theta: float | None) -> list[tuple[np.ndarray, np.ndarray]]:
    """A two-qubit gate as a sum of ``first (x) second`` factor pairs."""
    if name in ("cnot", "cx"):
        return [(_P0, _I), (_P1, _X)]
    if name == "cz":
        return [(_P0, _I), (_P1, _Z)]
    if name in ("crx", "cry", "crz"):
        return [(_P0, _I), (_P1, _one_qubit(name[1:], theta))]
    if name == "swap":
        return [(0.5 * p, q) for p, q in ((_I, _I), (_X, _X), (_Y, _Y), (_Z, _Z))]
    raise KeyError(f"reference simulator has no two-qubit gate {name!r}")


def _kron_all(factors: list[np.ndarray]) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


@lru_cache(maxsize=4096)
def gate_matrix(num_qubits: int, name: str, wires: tuple[int, ...], theta: float | None) -> np.ndarray:
    """The dense ``2**n`` matrix of one gate on ``wires``."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"reference simulator handles 1..{MAX_QUBITS} qubits")
    name = name.lower()
    if len(wires) == 1:
        factors = [_I] * num_qubits
        factors[wires[0]] = _one_qubit(name, theta)
        return _kron_all(factors)
    first, second = wires
    total = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    for a, b in _terms(name, theta):
        factors = [_I] * num_qubits
        factors[first], factors[second] = a, b
        total += _kron_all(factors)
    return total


@lru_cache(maxsize=1024)
def pauli_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli string such as ``"XIZ"`` (letter i = qubit i)."""
    return _kron_all([_PAULI[c] for c in label])


def run(num_qubits: int, ops: list[tuple], states: np.ndarray | None = None) -> np.ndarray:
    """Evolve ``states`` (columns are states; default ``|0...0>``) through
    ``ops``, a list of ``(name, wires, theta_or_None)``.  Returns ``(2**n, k)``."""
    if states is None:
        states = np.zeros((2**num_qubits, 1), dtype=complex)
        states[0, 0] = 1.0
    for name, wires, theta in ops:
        t = None if theta is None else float(theta)
        states = gate_matrix(num_qubits, name, tuple(wires), t) @ states
    return states


def expectations(states: np.ndarray, labels: list[str]) -> np.ndarray:
    """``<psi|P|psi>`` for each column state and each label: ``(k, len(labels))``."""
    out = np.empty((states.shape[1], len(labels)))
    for j, label in enumerate(labels):
        out[:, j] = np.einsum("ik,ik->k", states.conj(), pauli_matrix(label) @ states).real
    return out


def encoder_ops(angles: np.ndarray) -> list[tuple]:
    """The paper's Fig. 7 encoder for one ``(rows, cols)`` sample, written out
    here from its description: a Hadamard on every qubit, then row r as RZ
    (even r) or RX (odd r) with angle ``angles[r, q]`` on qubit q."""
    rows, cols = angles.shape
    ops: list[tuple] = [("h", (q,), None) for q in range(cols)]
    for r in range(rows):
        gate = "rz" if r % 2 == 0 else "rx"
        ops += [(gate, (q,), float(angles[r, q])) for q in range(cols)]
    return ops


def encode(angles: np.ndarray) -> np.ndarray:
    """Encoded states of a ``(k, rows, cols)`` batch as columns ``(2**cols, k)``."""
    cols = angles.shape[2]
    return np.concatenate([run(cols, encoder_ops(a)) for a in angles], axis=1)


def local_paulis(num_qubits: int, locality: int) -> list[str]:
    """Every Pauli label of weight <= ``locality``: by weight, then site
    subset in lexicographic order, then letters in X, Y, Z order."""
    labels = []
    for weight in range(locality + 1):
        for sites in itertools.combinations(range(num_qubits), weight):
            for letters in itertools.product("XYZ", repeat=weight):
                chars = ["I"] * num_qubits
                for site, letter in zip(sites, letters):
                    chars[site] = letter
                labels.append("".join(chars))
    return labels


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"reference simulator self-test failed: {what}")


def self_test() -> None:
    """Hand-computed cases; raises ``RuntimeError`` on a fault."""
    theta = 0.7321
    psi = run(1, [("ry", (0,), theta)])
    z, x = expectations(psi, ["Z", "X"])[0]
    _check(abs(z - np.cos(theta)) < 1e-14, "RY(theta)|0> gives <Z> = cos(theta)")
    _check(abs(x - np.sin(theta)) < 1e-14, "RY(theta)|0> gives <X> = sin(theta)")
    bell = run(2, [("h", (0,), None), ("cnot", (0, 1), None)])
    zz, xx, yy, zi = expectations(bell, ["ZZ", "XX", "YY", "ZI"])[0]
    _check(abs(zz - 1) < 1e-14 and abs(xx - 1) < 1e-14, "Bell pair <ZZ> = <XX> = 1")
    _check(abs(yy + 1) < 1e-14 and abs(zi) < 1e-14, "Bell pair <YY> = -1, <ZI> = 0")
    flipped = run(2, [("x", (1,), None), ("cnot", (1, 0), None)])
    _check(abs(abs(flipped[3, 0]) - 1) < 1e-14, "CNOT(1 -> 0) maps |01> to |11>")
    plus = run(1, [("h", (0,), None), ("rz", (0,), theta)])
    _check(abs(expectations(plus, ["X"])[0, 0] - np.cos(theta)) < 1e-14, "RZ on |+>")
    _check(len(local_paulis(4, 2)) == 67 and len(local_paulis(8, 2)) == 277, "Eq. 18 counts")


if __name__ == "__main__":
    self_test()
    print("reference simulator self-tests passed")
