"""Independent numpy oracle for the benchmark's output checks.

Every map is handled as its superoperator S, the d^2 x d^2 matrix with
vec(Phi(rho)) = S vec(rho) for row-major vec. A Kraus family gives
S = sum_n K_n (x) conj(K_n); the trivial map rho -> tr(rho a) alpha gives
S = vec(alpha) vec(a^T)^T. Induced effects, duals and probabilities are read
off S, so the oracle never goes through the library's Kraus bookkeeping.

Square roots use ``np.linalg.eigh``. That is allowed here because this module
is only a test oracle; the library itself keeps its own Jacobi solver. The
root zeroes eigenvalues below PSD_TOL, the rule ``matcore.sqrt_psd`` documents.
"""

from __future__ import annotations

import numpy as np

PSD_TOL = 1e-10
EQ_TOL = 1e-9
# Agreement required between library output and the oracle (max norm). The
# library decides equality at EQ_TOL; square roots near zero eigenvalues and
# long Kraus sums add round-off, so the check allows a little more.
MATCH_TOL = 1e-8
PRODUCT_SEPARATOR = "⊗"


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    values, vectors = np.linalg.eigh((m + m.conj().T) / 2)
    roots = np.where(values < PSD_TOL, 0.0, np.sqrt(np.clip(values, 0.0, None)))
    return (vectors * roots) @ vectors.conj().T


def superop_kraus(kraus: np.ndarray) -> np.ndarray:
    k = np.asarray(kraus, dtype=complex)
    n, d, _ = k.shape
    flat = k.reshape(n, d * d)
    x = flat.T @ flat.conj()  # x[(i,j),(k,l)] = sum_n K[i,j] conj(K[k,l])
    return x.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def superop_trivial(a: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    return np.outer(alpha.reshape(-1), a.T.reshape(-1))


def superop_luders(a: np.ndarray) -> np.ndarray:
    return superop_kraus(sqrt_psd(a)[None])


def dual(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The effect Phi^dagger(b): tr(Phi(rho) b) = tr(rho dual)."""
    d = b.shape[0]
    return (b.T.reshape(-1) @ s).reshape(d, d).T


def hat(s: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(s.shape[0])))
    return dual(s, np.eye(d, dtype=complex))


def apply(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (s @ rho.reshape(-1)).reshape(d, d)


def trace_out(s: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(apply(s, rho)).real)


def max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def prob(rho: np.ndarray, a: np.ndarray) -> float:
    return min(1.0, max(0.0, float(np.trace(rho @ a).real)))


def seq_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    root = sqrt_psd(a)
    return root @ b @ root


# JSON views of library objects (the scenario schema, decoded independently).

def matrix(data: dict) -> np.ndarray:
    return np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)


def superop_json(data: dict) -> np.ndarray:
    """Superoperator of a serialized operation of any kind."""
    kind = data["kind"]
    if kind == "kraus":
        return superop_kraus(np.stack([matrix(m) for m in data["operators"]]))
    if kind == "luders":
        return superop_luders(matrix(data["effect"]))
    if kind == "trivial":
        return superop_trivial(matrix(data["effect"]), matrix(data["state"]))
    if kind == "semi_trivial":
        return sum(superop_trivial(matrix(p["effect"]), matrix(p["state"])) for p in data["pairs"])
    if kind == "sharp":
        return superop_kraus(np.stack([matrix(p) for p in data["projections"]]))
    raise ValueError(f"unknown operation kind {kind!r}")


def observable_json(data: dict) -> dict[str, np.ndarray]:
    return {str(x): matrix(e) for x, e in zip(data["outcomes"], data["effects"])}


def instrument_json(data: dict) -> dict[str, np.ndarray]:
    return {str(x): superop_json(o) for x, o in zip(data["outcomes"], data["ops"])}


def decode(data: dict):
    """Oracle view of a typed scenario object: a matrix, a superoperator, or
    an outcome -> matrix / superoperator mapping."""
    kind = data["type"]
    if kind in ("effect", "state"):
        return matrix(data)
    if kind == "operation":
        return superop_json(data)
    if kind == "observable":
        return observable_json(data)
    if kind == "instrument":
        return instrument_json(data)
    raise ValueError(f"unknown object type {kind!r}")
