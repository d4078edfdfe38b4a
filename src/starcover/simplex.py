"""Polynomial differential forms on the geometric q-simplex, their exact
integration, de Rham differential, and simplicial pullbacks.

Delta^q = Spec Q[t_0..t_q]/(sum t_i - 1); we eliminate t_0 := 1 - sum_{i>=1}
and represent a form as {frozenset S of {1..q} -> Poly in t_1..t_q} meaning
sum_S  f_S dt_{i_1} ^ ... ^ dt_{i_r}  with S sorted increasingly.

Integration of top forms is the Dirichlet formula
    int_{Delta^q} t^a dt_1...dt_q = (prod a_i!) / (q + sum a_i)!
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Mapping, Sequence

from .exactalg import AlgebraError, Poly, QQ


def t_vars(q: int) -> tuple[str, ...]:
    return tuple(f"t{i}" for i in range(1, q + 1))


class SimplexForm:
    """Polynomial differential form on Delta^q in the coordinates t_1..t_q."""

    __slots__ = ("q", "parts")

    def __init__(self, q: int, parts: Mapping[frozenset, Poly]):
        self.q = q
        clean: dict[frozenset, Poly] = {}
        for S, f in parts.items():
            S = frozenset(S)
            if any(not (1 <= i <= q) for i in S):
                raise AlgebraError(f"dt index out of range for Delta^{q}")
            if f.variables != t_vars(q):
                raise AlgebraError("coefficient over the wrong t-variables")
            if f.is_zero():
                continue
            clean[S] = clean.get(S, Poly.zero(t_vars(q))) + f
        self.parts = {S: f for S, f in clean.items() if not f.is_zero()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(q: int) -> "SimplexForm":
        return SimplexForm(q, {})

    @staticmethod
    def function(q: int, f: Poly) -> "SimplexForm":
        return SimplexForm(q, {frozenset(): f})

    @staticmethod
    def coordinate(q: int, i: int) -> "SimplexForm":
        """t_i as a 0-form; t_0 is 1 - sum of the others."""
        tv = t_vars(q)
        if i == 0:
            f = Poly.const(tv, 1)
            for j in range(1, q + 1):
                f = f - Poly.var(tv, f"t{j}")
            return SimplexForm.function(q, f)
        return SimplexForm.function(q, Poly.var(tv, f"t{i}"))

    @staticmethod
    def dt(q: int, i: int) -> "SimplexForm":
        """dt_i; dt_0 = -sum_{j>=1} dt_j."""
        if i == 0:
            out = SimplexForm.zero(q)
            for j in range(1, q + 1):
                out = out - SimplexForm.dt(q, j)
            return out
        return SimplexForm(q, {frozenset([i]): Poly.const(t_vars(q), 1)})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other: "SimplexForm") -> "SimplexForm":
        if self.q != other.q:
            raise AlgebraError("forms on different simplices")
        parts = dict(self.parts)
        for S, f in other.parts.items():
            parts[S] = parts[S] + f if S in parts else f
        return SimplexForm(self.q, parts)

    def __neg__(self) -> "SimplexForm":
        return SimplexForm(self.q, {S: -f for S, f in self.parts.items()})

    def __sub__(self, other: "SimplexForm") -> "SimplexForm":
        return self + (-other)

    def scale(self, c) -> "SimplexForm":
        return SimplexForm(self.q, {S: f.scale(c) for S, f in self.parts.items()})

    def wedge(self, other: "SimplexForm") -> "SimplexForm":
        if self.q != other.q:
            raise AlgebraError("forms on different simplices")
        parts: dict[frozenset, Poly] = {}
        for S1, f1 in self.parts.items():
            for S2, f2 in other.parts.items():
                merged = wedge_sets(S1, S2)
                if merged is None:
                    continue
                S, sign = merged
                f = (f1 * f2).scale(sign)
                parts[S] = parts[S] + f if S in parts else f
        return SimplexForm(self.q, parts)

    def d(self) -> "SimplexForm":
        parts: dict[frozenset, Poly] = {}
        for S, f in self.parts.items():
            for i in range(1, self.q + 1):
                if i in S:
                    continue
                df = f.derivative(i - 1)
                if df.is_zero():
                    continue
                merged = wedge_sets(frozenset([i]), S)
                assert merged is not None
                S2, sign = merged
                g = df.scale(sign)
                parts[S2] = parts[S2] + g if S2 in parts else g
        return SimplexForm(self.q, parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimplexForm)
            and self.q == other.q
            and self.parts == other.parts
        )

    def __hash__(self):
        raise TypeError("SimplexForm is unhashable")

    def render(self) -> str:
        if not self.parts:
            return "0"
        chunks = []
        for S in sorted(self.parts, key=lambda S: (len(S), sorted(S))):
            f = self.parts[S]
            fs = f.render()
            body = "^".join(f"dt{i}" for i in sorted(S))
            if not S:
                chunks.append(fs)
            elif fs == "1":
                chunks.append(body)
            else:
                if len(f.terms) > 1:
                    fs = f"({fs})"
                chunks.append(f"{fs}*{body}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"SimplexForm(q={self.q}, {self.render()!r})"


def inversion_sign(a: Collection[int], b: Collection[int]) -> int:
    """(-1)^(pairs x in a, y in b with x > y): the sign that sorts the
    concatenation of two disjoint increasing index lists, i.e. of
    e_a ^ e_b = sign * e_(a | b) for odd generators."""
    return (-1) ** sum(1 for x in a for y in b if x > y)


def wedge_sets(S1: frozenset, S2: frozenset):
    """dt_S1 ^ dt_S2 = sign * dt_(S1 | S2) as (S1 | S2, sign), each set in
    increasing order; None when they meet."""
    if S1 & S2:
        return None
    return frozenset(S1 | S2), inversion_sign(S1, S2)


def dirichlet_integral(exponents: Sequence[int], q: int) -> Fraction:
    """int over Delta^q of t_1^{a_1} ... t_q^{a_q} dt_1...dt_q (t_0 absent)."""
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(q + sum(exponents)))


def simplex_integrate(omega: SimplexForm) -> Fraction:
    """Integrate a top-degree form over Delta^q; linear in the coefficient,
    = (prod a_i!)/(q + sum a_i)! on monomials times dt_1^...^dt_q."""
    q = omega.q
    if q == 0:
        # Delta^0 is a point: integration is evaluation of the 0-form part
        f = omega.parts.get(frozenset(), Poly.zero(t_vars(0)))
        return f.constant_value() if not f.is_zero() else QQ(0)
    top = frozenset(range(1, q + 1))
    for S in omega.parts:
        if S != top:
            raise AlgebraError("simplex_integrate needs a top-degree form")
    f = omega.parts.get(top)
    if f is None:
        return QQ(0)
    total = QQ(0)
    for e, c in f.terms.items():
        total += c * dirichlet_integral(e, q)
    return total


def face_map_images(alpha: Sequence[int], p: int, q: int) -> list[Poly]:
    """For order-preserving alpha: [p] -> [q], the pullback sends the target
    coordinate t_j (j = 1..q) to sum of source t_i over alpha(i) = j.

    Returns the images of t_1..t_q as polynomials in t_1..t_p (source),
    using t_0 = 1 - sum on the source where alpha(0) = j."""
    tvp = t_vars(p)
    out = []
    for j in range(1, q + 1):
        f = Poly.zero(tvp)
        for i in range(0, p + 1):
            if alpha[i] != j:
                continue
            if i == 0:
                g = Poly.const(tvp, 1)
                for k in range(1, p + 1):
                    g = g - Poly.var(tvp, f"t{k}")
                f = f + g
            else:
                f = f + Poly.var(tvp, f"t{i}")
        out.append(f)
    return out


def face_pullback(omega: SimplexForm, alpha: Sequence[int], p: int) -> SimplexForm:
    """Pull back a form on Delta^q along the simplex map Delta^p -> Delta^q
    induced by order-preserving alpha: {0..p} -> {0..q}."""
    q = omega.q
    alpha = tuple(alpha)
    if len(alpha) != p + 1 or any(alpha[i] > alpha[i + 1] for i in range(p)):
        raise AlgebraError("alpha must be an order-preserving map [p] -> [q]")
    if any(not (0 <= a <= q) for a in alpha):
        raise AlgebraError("alpha out of range")
    images = face_map_images(alpha, p, q)  # images of t_1..t_q in source coords
    # dt_j pulls back to d(images[j-1])
    dt_images = []
    tvp = t_vars(p)
    for j in range(1, q + 1):
        img = images[j - 1]
        form = SimplexForm.zero(p)
        for i in range(1, p + 1):
            df = img.derivative(i - 1)
            if not df.is_zero():
                form = form + SimplexForm(p, {frozenset([i]): df})
        dt_images.append(form)
    out = SimplexForm.zero(p)
    for S, f in omega.parts.items():
        coeff = f.substitute_poly(tvp, images)
        piece = SimplexForm.function(p, coeff)
        for j in sorted(S):
            piece = piece.wedge(dt_images[j - 1])
            if piece.is_zero():
                break
        out = out + piece
    return out


def coface(i: int, q: int) -> tuple[int, ...]:
    """The i-th coface [q-1] -> [q] (skips i)."""
    return tuple(j if j < i else j + 1 for j in range(q))


def stokes_boundary_integral(omega: SimplexForm) -> Fraction:
    """sum_i (-1)^i int_{Delta^{q-1}} (i-th face pullback of omega)."""
    q = omega.q
    total = QQ(0)
    for i in range(q + 1):
        pb = face_pullback(omega, coface(i, q), q - 1)
        total += ((-1) ** i) * simplex_integrate(pb)
    return total
