"""Independent ground-truth evaluators used to cross-check relaxation bounds.

A ConcreteRealization pins each generator to an explicit matrix and fixes a
state; expectations computed here come from plain linear algebra, with no
moment machinery involved, which is what makes them useful as oracles.
grid_min brute-forces small commuting problems on a dense grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    AlgebraError, Polynomial, Presentation, Word, normal_form,
)
from .sdpmodel import SENSE_GE, SENSE_LE

RESIDUAL_TOL = 1e-9


class RealizationError(AlgebraError):
    pass


class EmptyFeasibleGrid(Exception):
    pass


@dataclass
class ConcreteRealization:
    """Generators as matrices plus a state (unit vector or density matrix)."""

    presentation: Presentation
    matrices: dict[str, np.ndarray]
    state: np.ndarray
    _mats: list[np.ndarray] = field(init=False, repr=False)
    _dim: int = field(init=False)
    _density: bool = field(init=False)

    def __post_init__(self):
        pres = self.presentation
        names = [g.name for g in pres.generators]
        missing = [n for n in names if n not in self.matrices]
        if missing:
            raise RealizationError(f"no matrix for generator(s) {missing}")
        mats = [np.asarray(self.matrices[n], dtype=complex) for n in names]
        dim = mats[0].shape[0]
        for n, M in zip(names, mats):
            if M.shape != (dim, dim):
                raise RealizationError(f"matrix for {n} is not {dim}x{dim}")
        self._mats = mats
        self._dim = dim

        st = np.asarray(self.state, dtype=complex)
        if st.ndim == 1:
            if st.shape != (dim,):
                raise RealizationError("state vector has wrong dimension")
            if abs(np.linalg.norm(st) - 1.0) > RESIDUAL_TOL:
                raise RealizationError("state vector is not normalized")
            self._density = False
        elif st.ndim == 2:
            if st.shape != (dim, dim):
                raise RealizationError("density matrix has wrong shape")
            if np.linalg.norm(st - st.conj().T) > RESIDUAL_TOL:
                raise RealizationError("density matrix is not hermitian")
            if np.linalg.eigvalsh((st + st.conj().T) / 2)[0] < -1e-12:
                raise RealizationError("density matrix is not psd")
            if abs(np.trace(st) - 1.0) > RESIDUAL_TOL:
                raise RealizationError("density matrix trace is not one")
            self._density = True
        else:
            raise RealizationError("state must be a vector or a square matrix")
        self.state = st

        for i, g in enumerate(pres.generators):
            if g.selfadjoint:
                r = np.linalg.norm(mats[i] - mats[i].conj().T)
                if r > RESIDUAL_TOL:
                    raise RealizationError(
                        f"generator {g.name} declared selfadjoint, "
                        f"matrix residual {r:.3e}")
        for a, b in pres.commuting:
            r = np.linalg.norm(mats[a] @ mats[b] - mats[b] @ mats[a])
            if r > RESIDUAL_TOL:
                raise RealizationError(
                    f"generators {names[a]}, {names[b]} declared commuting, "
                    f"residual {r:.3e}")
        for rule in pres.rules:
            r = np.linalg.norm(self.eval_word(rule.lhs) - self.eval_poly(rule.rhs))
            if r > RESIDUAL_TOL:
                raise RealizationError(
                    f"relation residual {r:.3e} for rule on {rule.lhs.letters}")

    @property
    def dim(self) -> int:
        return self._dim

    def eval_word(self, w: Word) -> np.ndarray:
        M = np.eye(self._dim, dtype=complex)
        for g, starred in w.letters:
            G = self._mats[g]
            M = M @ (G.conj().T if starred else G)
        return M

    def eval_poly(self, p: Polynomial) -> np.ndarray:
        M = np.zeros((self._dim, self._dim), dtype=complex)
        for w, c in p.terms():
            M += c * self.eval_word(w)
        return M

    def expect(self, p: Polynomial | Word) -> complex:
        M = self.eval_word(p) if isinstance(p, Word) else self.eval_poly(p)
        if self._density:
            return complex(np.trace(self.state @ M))
        return complex(np.vdot(self.state, M @ self.state))


def realize_moments(real: ConcreteRealization,
                    words: list[Word]) -> dict[Word, complex]:
    """Expectation of each word in the given realization."""
    return {w: real.expect(w) for w in words}


def grid_min(pres: Presentation, objective: Polynomial,
             constraints: list[tuple[Polynomial, str, float]] | None = None,
             bounds: tuple[float, float] = (-2.0, 2.0),
             points: int = 201) -> float:
    """Brute-force minimum of a commuting selfadjoint problem on a grid.

    Every generator must be selfadjoint and all pairs must commute, so that
    scalar assignments exhaust the one-dimensional representations.  Raises
    EmptyFeasibleGrid when no grid point satisfies the constraints."""
    k = len(pres.generators)
    for g in pres.generators:
        if not g.selfadjoint:
            raise AlgebraError("grid oracle needs selfadjoint generators")
    if any((a, b) not in pres.commuting for a in range(k) for b in range(a + 1, k)):
        raise AlgebraError("grid oracle needs commuting generators")

    axes = np.meshgrid(*[np.linspace(bounds[0], bounds[1], points)] * k,
                       indexing="ij") if k else []

    def ev(p: Polynomial):
        total = np.zeros(axes[0].shape) if k else 0.0
        for w, c in p.terms():
            term = np.ones(axes[0].shape) if k else 1.0
            for g, _ in w.letters:
                term = term * axes[g]
            total = total + np.real(c) * term
        return total

    obj = ev(objective)
    mask = np.ones(obj.shape, dtype=bool) if k else True
    for p, sense, rhs in (constraints or []):
        v = ev(p)
        if sense == SENSE_LE:
            mask = mask & (v <= rhs + 1e-12)
        elif sense == SENSE_GE:
            mask = mask & (v >= rhs - 1e-12)
        else:
            mask = mask & (np.abs(v - rhs) <= 1e-9)
    if k == 0:
        return float(obj)
    if not np.any(mask):
        raise EmptyFeasibleGrid("no grid point satisfies the constraints")
    return float(np.min(obj[mask]))


def chsh_tsirelson_realization(pres: Presentation) -> ConcreteRealization:
    """Two-qubit realization saturating the quantum bound of the CHSH
    operator: A0, A1 act on the first qubit, B0, B1 on the second, with the
    maximally entangled state."""
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    I2 = np.eye(2)
    s = 1.0 / np.sqrt(2.0)
    mats = {
        "A0": np.kron(sz, I2),
        "A1": np.kron(sx, I2),
        "B0": np.kron(I2, s * (sz - sx)),
        "B1": np.kron(I2, s * (sz + sx)),
    }
    psi = np.zeros(4)
    psi[0] = psi[3] = s
    return ConcreteRealization(pres, mats, psi)


def chsh_classical_max() -> float:
    """Maximum of a0 b0 + a1 b1 + a0 b1 - a1 b0 over sign assignments."""
    best = -np.inf
    for a0 in (-1, 1):
        for a1 in (-1, 1):
            for b0 in (-1, 1):
                for b1 in (-1, 1):
                    best = max(best, a0 * b0 + a1 * b1 + a0 * b1 - a1 * b0)
    return float(best)
