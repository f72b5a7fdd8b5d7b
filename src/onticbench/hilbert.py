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

from .numerics import ONE, QSqrt2, ZERO, INV_SQRT2, as_qsqrt2
from .verdicts import Record, Verdict, _set


class StateVector(Record):
    """A pure state as a tuple of exact amplitudes.

    Normalization (norm squared exactly one) is checked at construction.
    ``validate=False`` skips the check; tensor_product passes it, because a
    product of unit vectors is a unit vector.
    """

    _fields = ("amplitudes",)

    def __init__(self, amplitudes: Sequence[QSqrt2], validate: bool = True) -> None:
        amps = tuple(as_qsqrt2(a) for a in amplitudes)
        if not amps:
            raise ValueError("a state vector needs at least one amplitude")
        _set(self, "amplitudes", amps)
        if validate and self.norm_squared() != ONE:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {self.norm_squared()}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def norm_squared(self) -> QSqrt2:
        total = ZERO
        for a in self.amplitudes:
            total = total + a * a
        return total


class MeasurementBasis(Record):
    """An orthonormal basis listed in outcome order (outcome k = vector k-1).

    Construction insists the vectors form a complete orthonormal basis;
    check_orthonormal reports on any other list of vectors.
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
    total = ZERO
    for a, b in zip(first.amplitudes, second.amplitudes):
        total = total + a * b
    return total


def tensor_product(first: StateVector, second: StateVector) -> StateVector:
    amps = [a * b for a in first.amplitudes for b in second.amplitudes]
    return StateVector(tuple(amps), validate=False)


def born_probabilities(state: StateVector, basis: MeasurementBasis) -> list[QSqrt2]:
    """The outcome distribution (<xi_k|psi>^2) for k = 1..K."""
    if state.dim != basis.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, basis {basis.dim}")
    overlaps = [inner_product(vec, state) for vec in basis.outcomes]
    return [ip * ip for ip in overlaps]


def check_orthonormal(vecs: Sequence[StateVector]) -> Verdict:
    """Check <xi_i|xi_j> = delta_ij exactly, listing every failing pair."""
    failures: list[str] = []
    witnesses: list[tuple[int, int]] = []
    for i in range(len(vecs)):
        for j in range(i, len(vecs)):
            ip = inner_product(vecs[i], vecs[j])
            expected = ONE if i == j else ZERO
            if ip != expected:
                failures.append(f"<xi_{i + 1}|xi_{j + 1}> = {ip}, expected {expected}")
                witnesses.append((i + 1, j + 1))
    return Verdict(not failures, tuple(failures), tuple(witnesses))


_NAMED_KETS = {
    "0": (ONE, ZERO),
    "1": (ZERO, ONE),
    "+": (INV_SQRT2, INV_SQRT2),
    "-": (INV_SQRT2, -INV_SQRT2),
}


def ket(name: str) -> StateVector:
    """One of the named qubit states "0", "1", "+", "-"."""
    try:
        return StateVector(_NAMED_KETS[name])
    except KeyError:
        raise ValueError(f"unknown ket name {name!r}; expected one of 0, 1, +, -") from None


def ket_product(names: str) -> StateVector:
    """Tensor product of named qubit states, e.g. "0+" = |0> (x) |+>."""
    if not names:
        raise ValueError("empty ket product")
    state = ket(names[0])
    for name in names[1:]:
        state = tensor_product(state, ket(name))
    return state

