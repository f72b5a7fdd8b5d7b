"""Exact finite-dimensional state vectors and Born probabilities.

Amplitudes are real numbers in Q(sqrt2), which is enough to express qubit
states built from the computational and Hadamard bases, their tensor
products, and the real entangled basis of the PBR measurement.  Inner
products, norms, and outcome probabilities all come out exactly: a state
is normalized iff its norm squared equals one as a field element.

Conventions:
  * tensor products are row-major: the first factor varies slowest,
    so (a (x) b)[i*dim_b + j] = a[i] * b[j];
  * measurement outcomes are indexed 1..K in reports, matching the
    positional order of the basis vectors.
"""

from __future__ import annotations

from collections.abc import Sequence

from .numerics import ONE, QSqrt2, ZERO, INV_SQRT2, as_qsqrt2, qdot
from .verdicts import Record, Verdict, _set


class StateVector(Record):
    """A pure state as a tuple of exact amplitudes.

    Every StateVector is a unit vector: construction checks that its norm
    squared is exactly one, so every inner product has |<a|b>|^2 <= 1.
    """

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: Sequence[QSqrt2]) -> None:
        amps = tuple(as_qsqrt2(a) for a in amplitudes)
        if not amps:
            raise ValueError("a state vector needs at least one amplitude")
        _set(self, "amplitudes", amps)
        if self.norm_squared() != ONE:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {self.norm_squared()}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def norm_squared(self) -> QSqrt2:
        return qdot(self.amplitudes, self.amplitudes)


class MeasurementBasis(Record):
    """An orthonormal basis listed in outcome order (outcome k = vector k-1).

    Construction insists the vectors form a complete orthonormal basis;
    check_orthonormal reports the pairs of any list that are not orthogonal.
    """

    _fields = ("outcomes",)

    def __init__(self, outcomes: Sequence[StateVector]) -> None:
        vecs = tuple(outcomes)
        if not vecs:
            raise ValueError("a measurement basis needs at least one outcome vector")
        dim = vecs[0].dim
        if any(v.dim != dim for v in vecs):
            raise ValueError("all basis vectors must share one dimension")
        _set(self, "outcomes", vecs)
        if len(vecs) != dim:
            raise ValueError(f"{len(vecs)} vectors cannot be a complete basis in dimension {dim}")
        verdict = check_orthonormal(vecs)
        if not verdict.ok:
            raise ValueError("; ".join(verdict.failures))

    @property
    def dim(self) -> int:
        return self.outcomes[0].dim


def inner_product(first: StateVector, second: StateVector) -> QSqrt2:
    """<first|second>."""
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")
    return qdot(first.amplitudes, second.amplitudes)


def born_probabilities(state: StateVector, basis: MeasurementBasis) -> list[QSqrt2]:
    """The outcome distribution (<xi_k|psi>^2) for k = 1..K."""
    if state.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, basis {basis.dim}")
    overlaps = [inner_product(vec, state) for vec in basis.outcomes]
    return [ip * ip for ip in overlaps]


def check_orthonormal(vecs: Sequence[StateVector]) -> Verdict:
    """List each pair i < j with <xi_i|xi_j> != 0; <xi_i|xi_i> = 1 is StateVector's own check."""
    failures: list[str] = []
    witnesses: list[tuple[int, int]] = []
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            ip = inner_product(vecs[i], vecs[j])
            if ip:
                failures.append(f"<xi_{i + 1}|xi_{j + 1}> = {ip}, expected 0")
                witnesses.append((i + 1, j + 1))
    return Verdict(not failures, tuple(failures), tuple(witnesses))


_NAMED_KETS = {
    "0": (ONE, ZERO),
    "1": (ZERO, ONE),
    "+": (INV_SQRT2, INV_SQRT2),
    "-": (INV_SQRT2, -INV_SQRT2),
}


def _named(name: str) -> tuple[QSqrt2, QSqrt2]:
    if name not in _NAMED_KETS:
        raise ValueError(f"unknown ket name {name!r}; expected one of 0, 1, +, -")
    return _NAMED_KETS[name]


def ket(name: str) -> StateVector:
    """One of the named qubit states "0", "1", "+", "-"."""
    return StateVector(_named(name))


def ket_product(names: str) -> StateVector:
    """Tensor product of named qubit states, e.g. "0+" = |0> (x) |+>."""
    if not names:
        raise ValueError("empty ket product")
    amps = _named(names[0])
    for pair in map(_named, names[1:]):
        amps = [a * b for a in amps for b in pair]
    return StateVector(amps)

