"""Finite-dimensional seminormed spaces presented by orthogonal bases.

A diagonal seminorm is a finite list of basis labels together with the
additive weights of the basis vectors: the seminorm of ``sum a_i e_i`` is
``min_i (v(a_i) + w_i)``.  A weight of INF marks a kernel vector.  Tensor,
exterior and symmetric powers act on the weights by the sum rules for
orthogonal bases; the determinant seminorm and the index of two norms are
read off the top exterior power.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement

from .errors import DomainError
from .fields import _as_int
from .values import Val, vmin, vsum

__all__ = [
    "DiagSeminorm",
    "tensor",
    "wedge_power",
    "sym_power",
    "sym_power_is_exact",
    "det_norm",
    "norm_index",
]


@dataclass(frozen=True)
class DiagSeminorm:
    """An orthogonal-basis seminorm given by labels and additive weights."""

    labels: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.labels) != len(self.weights):
            raise DomainError("labels and weights must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("basis labels must be pairwise distinct")
        object.__setattr__(self, "weights", tuple(Val(w) for w in self.weights))

    @classmethod
    def from_weights(cls, weights, labels=None) -> "DiagSeminorm":
        weights = tuple(Val(w) for w in weights)
        if labels is None:
            labels = tuple(range(1, len(weights) + 1))
        return cls(tuple(labels), weights)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def is_norm(self) -> bool:
        """True when no basis vector lies in the kernel."""
        return all(not w.is_inf for w in self.weights)

    def value(self, coefficient_vals) -> Val:
        """Seminorm of a vector given the valuations of its coordinates."""
        coefficient_vals = tuple(Val(v) for v in coefficient_vals)
        if len(coefficient_vals) != self.dim:
            raise DomainError("coordinate count does not match the dimension")
        return vmin(v + w for v, w in zip(coefficient_vals, self.weights))


def tensor(a: DiagSeminorm, b: DiagSeminorm) -> DiagSeminorm:
    """Tensor product: basis of pairs, weights add."""
    labels = tuple((la, lb) for la in a.labels for lb in b.labels)
    weights = tuple(wa + wb for wa in a.weights for wb in b.weights)
    return DiagSeminorm(labels, weights)


def wedge_power(a: DiagSeminorm, q: int) -> DiagSeminorm:
    """q-th exterior power: basis of strictly increasing q-subsets, each
    weighted by the sum of its members."""
    q = _as_int(q, "power")
    if not 0 <= q <= a.dim:
        raise DomainError(f"wedge power {q} out of range 0..{a.dim}")
    if q == 1:
        return a
    return _power(a, combinations(range(a.dim), q))


def sym_power(a: DiagSeminorm, q: int) -> DiagSeminorm:
    """q-th symmetric power: basis of size-q multisets, weights summed with
    multiplicity.  Over residue characteristic p with q >= p this is only
    an upper bound for the quotient seminorm (see sym_power_is_exact)."""
    q = _as_int(q, "power")
    if q < 0:
        raise DomainError("symmetric power requires q >= 0")
    if q == 1:
        return a
    return _power(a, combinations_with_replacement(range(a.dim), q))


def _power(a: DiagSeminorm, index_sets) -> DiagSeminorm:
    """One basis vector per index set, labelled by its members' labels and
    weighted by the sum of their weights (with multiplicity)."""
    sets = tuple(index_sets)
    return DiagSeminorm(tuple(tuple(a.labels[i] for i in s) for s in sets),
                        tuple(vsum(a.weights[i] for i in s) for s in sets))


def sym_power_is_exact(q: int, residue_char: int = 0) -> bool:
    """Whether the diagonal rule for sym_power is certified exact.

    Multinomial coefficients of total degree < p are prime to p, so the
    monomial basis stays orthogonal; for q >= p > 0 they may drop
    valuation and the diagonal weights are only an upper bound."""
    return residue_char == 0 or q < residue_char


def det_norm(a: DiagSeminorm) -> Val:
    """Weight of the top exterior basis vector: the sum of all weights.
    Degenerate (rejected) when some basis vector is in the kernel."""
    if not a.is_norm:
        raise DomainError("determinant seminorm degenerate: INF weight present")
    return vsum(a.weights)


def norm_index(a: DiagSeminorm, b: DiagSeminorm) -> Val:
    """Index of two norms on the same space, in the same underlying basis:
    det_norm(b) - det_norm(a)."""
    if a.dim != b.dim:
        raise DomainError("index requires norms of equal dimension")
    return det_norm(b) - det_norm(a)
