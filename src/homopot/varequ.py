"""Variational equations along the homothetic orbit, linearized over
monomial variables.

A level-l system tracks y[n1,n2,n3,n4] = dX1^n1 dX2^n2 X1^n3 X2^n4 for
all 1 <= n1+n2+n3+n4 <= l.  Differentiating a monomial and substituting
the second-derivative rule

    ddot X = s phi^{k0(k-2)} diag(k(k-1), lambda) X
           + s sum_{i=2..l} phi^{k0(k-1-i)} sum_j d_{i,j(+1)}/((i-j)! j!) X1^{i-j} X2^j

(s = force_sign, +1 for the formal display convention, -1 for physical
Hamiltonian time) yields linear transitions whose targets never have a
smaller index sum, so the system is block-triangular and its top block
is the l-th symmetric power of the first-order equation.  A tail term of
order i lifts y[n] to order |n| - 1 + i, so it is formed only for
i <= l - |n| + 1 and no target leaves level l.  Coefficients stay
symbolic in the d_{i,j}; a jet supplies their numeric values.  Each
transition is reached by exactly one of these rules, so its coefficient
is one term  q * (product of symbols) * phi^e.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from .scalars import GaussianRational
from .series import TaylorJet

Q = Fraction

LAMBDA_SYMBOL = "lam"


class Coef:
    """One term  q * (product of symbols) * phi^e;  zero when q == 0."""

    __slots__ = ("q", "phi_exp", "syms")

    def __init__(self, q: Fraction, phi_exp: int = 0, syms: tuple = ()):
        self.q = q
        self.phi_exp, self.syms = (phi_exp, syms) if q else (0, ())

    @staticmethod
    def zero() -> "Coef":
        return Coef(Q(0))

    @staticmethod
    def rational(q, phi_exp: int = 0, syms: tuple = ()) -> "Coef":
        return Coef(Q(q), phi_exp, tuple(sorted(syms)))

    def scale(self, q) -> "Coef":
        return Coef(self.q * Q(q), self.phi_exp, self.syms)

    def is_zero(self) -> bool:
        return not self.q

    def __eq__(self, other):
        return (isinstance(other, Coef) and self.q == other.q
                and self.phi_exp == other.phi_exp and self.syms == other.syms)

    def __repr__(self):
        if not self.q:
            return "0"
        b = str(self.q)
        for s in self.syms:
            b += f"*{s}"
        if self.phi_exp:
            b += f"*phi^{self.phi_exp}"
        return b


def monomial_basis(l: int):
    """All (n1,n2,n3,n4) with 1 <= sum <= l, graded lexicographic."""
    if l < 1:
        raise ValueError("level must be >= 1")
    out = []
    for order in range(1, l + 1):
        stratum = []
        for n1 in range(order + 1):
            for n2 in range(order - n1 + 1):
                for n3 in range(order - n1 - n2 + 1):
                    n4 = order - n1 - n2 - n3
                    stratum.append((n1, n2, n3, n4))
        stratum.sort()
        out.extend(stratum)
    return out


def stratum_size(order: int) -> int:
    return comb(order + 3, 3)


@dataclass
class VariationalSystem:
    """Sparse linear system dy/dt = A(phi) y over monomial indices."""

    level: int
    k: int
    k0: int
    lam: Optional[Fraction]           # None when lambda stays symbolic
    force_sign: int
    indices: list
    transitions: dict = field(repr=False)   # (src_pos, tgt_pos) -> nonzero Coef
    d_values: Optional[dict] = None         # symbol -> numeric value, from the jet

    @property
    def dim(self) -> int:
        return len(self.indices)

    def position(self, index) -> int:
        return self.indices.index(tuple(index))

    def coefficient(self, src, tgt) -> Coef:
        key = (self.position(src), self.position(tgt))
        return self.transitions.get(key, Coef.zero())

    def order_of(self, pos: int) -> int:
        return sum(self.indices[pos])

    def block_triangular_violations(self):
        """Transitions whose target has a smaller index sum (must be none)."""
        bad = []
        for src, tgt in self.transitions:
            if self.order_of(tgt) < self.order_of(src):
                bad.append((self.indices[src], self.indices[tgt]))
        return bad

    def top_block(self):
        """(stratum indices, matrix of Coef) for the order-l monomials."""
        strat = [i for i, idx in enumerate(self.indices) if sum(idx) == self.level]
        pos = {p: r for r, p in enumerate(strat)}
        n = len(strat)
        mat = [[Coef.zero()] * n for _ in range(n)]
        for (src, tgt), coef in self.transitions.items():
            if src in pos and tgt in pos:
                mat[pos[src]][pos[tgt]] = coef
        return [self.indices[p] for p in strat], mat

    def symbol_locations(self, name: str):
        """Where a d-symbol appears, as (source index, target index) pairs."""
        return sorted((self.indices[s], self.indices[t])
                      for (s, t), coef in self.transitions.items()
                      if name in coef.syms)

    def to_json(self) -> dict:
        entries = [{"from": list(self.indices[src]),
                    "to": list(self.indices[tgt]),
                    "coef": str(coef.q),
                    "phi_exp": coef.phi_exp,
                    "d_symbols": list(coef.syms)}
                   for (src, tgt), coef in sorted(self.transitions.items())]
        return {
            "level": self.level,
            "k": self.k,
            "k0": self.k0,
            "lambda": None if self.lam is None else str(self.lam),
            "force_sign": self.force_sign,
            "indices": [list(i) for i in self.indices],
            "entries": entries,
        }


def _lambda_coef(lam, phi_exp: int, sign: int) -> Coef:
    if lam is None:
        return Coef.rational(sign, phi_exp, (LAMBDA_SYMBOL,))
    return Coef.rational(Q(lam) * sign, phi_exp)


def _validate_jet(jet: TaylorJet, k: int, l: int):
    if jet.order < l:
        raise ValueError(f"jet order {jet.order} too small for level {l}")
    if not jet.exact:
        return
    if jet.value != GaussianRational(1) or not jet.d[0][1].is_zero():
        raise ValueError("jet is not in normalized form (V(c) != 1 or d2V(c) != 0)")
    if jet.d[0][0] != GaussianRational(k):
        raise ValueError("jet is not in normalized form (d1V(c) != k)")


def build_higher_ve(jet: Optional[TaylorJet], l: int, k: int, lam=None,
                    k0: int = 1, force_sign: int = 1) -> VariationalSystem:
    """Assemble the level-l linearized variational system.

    The tail terms of y[n] are formed only for orders i <= l - |n| + 1,
    the ones whose targets stay within level l, so nothing is truncated
    after it is built.  jet may be None for a purely structural system;
    when given it must be based at the normalized Darboux point and its
    derivatives are attached as the numeric values of the d-symbols.
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    if force_sign not in (1, -1):
        raise ValueError("force_sign must be +1 or -1")
    if jet is not None:
        _validate_jet(jet, k, l)
    lam_q = None if lam is None else Q(lam)
    indices = monomial_basis(l)
    pos = {idx: p for p, idx in enumerate(indices)}
    transitions: dict = {}  # each (source, target) key is set exactly once

    e_hom = k0 * (k - 2)
    lam_hom = _lambda_coef(lam_q, e_hom, force_sign)
    # tails[i - 2] lists, for j = 0..i, the shift (i - j, j) of (n3, n4), the
    # constant force_sign/((i-j)! j!), the phi exponent, and the symbols
    # d_{i,j} (the X1 equation) and d_{i,j+1} (the X2 equation)
    tails = []
    for i in range(2, l + 1):
        e_tail = k0 * (k - 1 - i)
        tails.append([(i - j, j, Q(force_sign, factorial(i - j) * factorial(j)), e_tail,
                       (f"d_{i}_{j}",), (f"d_{i}_{j + 1}",))
                      for j in range(i + 1)])

    for src, idx in enumerate(indices):
        n1, n2, n3, n4 = idx
        # a tail term of order i lifts y[n] to order |n| - 1 + i, so only
        # i <= l - |n| + 1 stays within level l
        kept = tails[:l - sum(idx)]
        if n3:
            transitions[src, pos[n1 + 1, n2, n3 - 1, n4]] = Coef.rational(n3)
        if n4:
            transitions[src, pos[n1, n2 + 1, n3, n4 - 1]] = Coef.rational(n4)
        if n1:
            hom = Coef.rational(n1 * k * (k - 1) * force_sign, e_hom)
            if not hom.is_zero():
                transitions[src, pos[n1 - 1, n2, n3 + 1, n4]] = hom
            for row in kept:
                for di, dj, c, e, syms, _ in row:
                    transitions[src, pos[n1 - 1, n2, n3 + di, n4 + dj]] = Coef(n1 * c, e, syms)
        if n2:
            if not lam_hom.is_zero():
                transitions[src, pos[n1, n2 - 1, n3, n4 + 1]] = lam_hom.scale(n2)
            for row in kept:
                for di, dj, c, e, _, syms in row:
                    transitions[src, pos[n1, n2 - 1, n3 + di, n4 + dj]] = Coef(n2 * c, e, syms)

    d_values = None
    if jet is not None:
        d_values = {name: complex(v) for name, v in jet.d_symbol_values().items()}
        if lam_q is not None:
            d_values[LAMBDA_SYMBOL] = complex(float(lam_q))
    return VariationalSystem(level=l, k=k, k0=k0, lam=lam_q, force_sign=force_sign,
                             indices=indices, transitions=transitions, d_values=d_values)


def first_order_matrix(k: int, lam=None, k0: int = 1, force_sign: int = 1):
    """The 4x4 first-order system for (dX1, dX2, X1, X2) as Coef entries."""
    lam_q = None if lam is None else Q(lam)
    e = k0 * (k - 2)
    M = [[Coef.zero() for _ in range(4)] for _ in range(4)]
    M[0][2] = Coef.rational(k * (k - 1) * force_sign, e)
    M[1][3] = _lambda_coef(lam_q, e, force_sign)
    M[2][0] = Coef.rational(1)
    M[3][1] = Coef.rational(1)
    return M


def sym_power_ve1(l: int, k: int, lam=None, k0: int = 1, force_sign: int = 1):
    """l-th symmetric power of the first-order system, built independently.

    Returns (stratum indices, matrix of Coef) in the same layout as
    VariationalSystem.top_block, to serve as its oracle.
    """
    if l < 1:
        raise ValueError("level must be >= 1")
    M = first_order_matrix(k, lam, k0, force_sign)
    stratum = [idx for idx in monomial_basis(l) if sum(idx) == l]
    pos = {idx: p for p, idx in enumerate(stratum)}
    n = len(stratum)
    out = [[Coef.zero()] * n for _ in range(n)]
    # M has no diagonal entries, so each (a, b) moves idx to its own target
    for idx in stratum:
        for a in range(4):
            if idx[a] == 0:
                continue
            for b in range(4):
                coef = M[a][b]
                if coef.is_zero():
                    continue
                tgt = list(idx)
                tgt[a] -= 1
                tgt[b] += 1
                out[pos[idx]][pos[tuple(tgt)]] = coef.scale(idx[a])
    return stratum, out


# -- symbolic residual engine for the scalar first variational equation ----


class VeExpr:
    """Sums of  c * t^m * (t^2-1)^r * I^s  with I = int (t^2-1)^{-(k+1)/k} dt.

    Closed under d/dt, which is all the residual computation needs.
    """

    __slots__ = ("k", "terms")

    def __init__(self, k: int, terms=None):
        if k == 0:
            raise ValueError("degree k must be nonzero")
        self.k = k
        self.terms = {}
        for key, val in (terms or {}).items():
            if val != 0:
                m, r, s = key
                self.terms[(int(m), Q(r), int(s))] = Q(val)

    @staticmethod
    def power_solution(k: int) -> "VeExpr":
        """P_k = (t^2-1)^{1/k}."""
        return VeExpr(k, {(0, Q(1, k), 0): 1})

    @staticmethod
    def second_solution(k: int) -> "VeExpr":
        """Q_k = P_k * I."""
        return VeExpr(k, {(0, Q(1, k), 1): 1})

    @staticmethod
    def polynomial(k: int, coeffs) -> "VeExpr":
        return VeExpr(k, {(m, Q(0), 0): c for m, c in enumerate(coeffs)})

    def _acc(self, out, key, val):
        s = out.get(key, Q(0)) + val
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s

    def diff(self) -> "VeExpr":
        rho = Q(-(self.k + 1), self.k)
        out = {}
        for (m, r, s), c in self.terms.items():
            if m:
                self._acc(out, (m - 1, r, s), c * m)
            if r:
                self._acc(out, (m + 1, r - 1, s), c * 2 * r)
            if s:
                self._acc(out, (m, r + rho, s - 1), c * s)
        return VeExpr(self.k, out)

    def mul_t(self) -> "VeExpr":
        return VeExpr(self.k, {(m + 1, r, s): c for (m, r, s), c in self.terms.items()})

    def mul_t2m1(self) -> "VeExpr":
        """Multiply by (t^2-1)."""
        return VeExpr(self.k, {(m, r + 1, s): c for (m, r, s), c in self.terms.items()})

    def scale(self, q) -> "VeExpr":
        q = Q(q)
        return VeExpr(self.k, {key: c * q for key, c in self.terms.items()})

    def __add__(self, other: "VeExpr") -> "VeExpr":
        out = dict(self.terms)
        for key, val in other.terms.items():
            self._acc(out, key, val)
        return VeExpr(self.k, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (m, r, s), c in sorted(self.terms.items()):
            b = f"{c}"
            if m:
                b += f"*t^{m}"
            if r:
                b += f"*(t^2-1)^{r}"
            if s:
                b += f"*I^{s}" if s > 1 else "*I"
            bits.append(b)
        return " + ".join(bits)


def ve1_residual(k: int, expr: VeExpr, eigenvalue=None) -> VeExpr:
    """Residual of  k^2/2 (t^2-1) X'' + k(k-1) t X' - ev X  (ev defaults to k)."""
    if k == 0:
        raise ValueError("degree k must be nonzero")
    ev = Q(k) if eigenvalue is None else Q(eigenvalue)
    d1 = expr.diff()
    d2 = d1.diff()
    out = d2.mul_t2m1().scale(Q(k * k, 2))
    out = out + d1.mul_t().scale(Q(k * (k - 1)))
    out = out + expr.scale(-ev)
    return out
