"""Polyvector fields T_poly of a chart algebra with the Schouten-Nijenhuis
bracket; Poisson brackets induced by Maurer-Cartan elements.

A degree-p payload is a map {strictly increasing (p+1)-tuple of variable
indices -> LocalizedPoly}; degree -1 payloads are plain coefficients keyed by
the empty tuple.  The bracket is the odd Poisson bracket

    [u, v] = u . v - (-1)^{pq} v . u,     u . v = sum_i  du/dtheta_i dv/dx_i,

which restricts to the commutator on vector fields and to xi(f) against
functions.  The differential is zero.

Derivations only ever touch the chart's *derivation variables*; extra
variables (simplex coordinates appended by the Thom-Sullivan layer) pass
through as scalars.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactalg import AlgebraError, LocalizedPoly
from .dgla import (
    DGLAElement,
    InducedStructure,
    MCElement,
    SparseCarrier,
    require_mc,
)
from .simplex import inversion_sign

VecKey = tuple[int, ...]
VecPayload = dict  # VecKey -> LocalizedPoly


def merge_odd(a: VecKey, b: VecKey) -> Optional[tuple[VecKey, int]]:
    """Product of odd monomials theta_a * theta_b: merged increasing tuple and
    the Koszul sign, or None when an index repeats."""
    if set(a) & set(b):
        return None
    return tuple(sorted(a + b)), inversion_sign(a, b)


class PolyvecCarrier(SparseCarrier):
    """T_poly over a chart: the carrier of the Poisson flavour."""

    flavor = "poisson"
    kind = "polyvec"
    noun = "polyvector"

    def d(self, x: VecPayload, degree: int) -> VecPayload:
        return {}

    # -- the Schouten bracket ----------------------------------------------
    #
    # Written on the odd cotangent coordinates (x_i, theta_i = d/dx_i) as the
    # BV antibracket
    #     [u, v] = sum_i (d_r u / d theta_i)(d v / d x_i)
    #            - sum_i (d u / d x_i)(d_l v / d theta_i)
    # with right derivatives on the left argument and left derivatives on the
    # right one.  This restricts to the commutator on vector fields, to
    # xi(f) against functions, and satisfies graded antisymmetry/Jacobi in
    # the shifted degrees (theta-degree minus one).

    def bracket(self, x: VecPayload, y: VecPayload, dx: int, dy: int) -> VecPayload:
        out: VecPayload = {}

        def accumulate(key, coeff, sign):
            if sign < 0:
                coeff = -coeff
            out[key] = out[key] + coeff if key in out else coeff

        for ks, f in x.items():
            s = len(ks)
            for kt, g in y.items():
                # term 1: right theta-derivative of x against d/dx of y
                for pos, i in enumerate(ks):
                    sign_r = (-1) ** (s - 1 - pos)
                    dg = g.derivative(i)
                    if dg.is_zero():
                        continue
                    merged = merge_odd(ks[:pos] + ks[pos + 1 :], kt)
                    if merged is None:
                        continue
                    key, sign = merged
                    accumulate(key, f * dg, sign_r * sign)
                # term 2: d/dx of x against left theta-derivative of y
                for pos, i in enumerate(kt):
                    sign_l = (-1) ** pos
                    df = f.derivative(i)
                    if df.is_zero():
                        continue
                    merged = merge_odd(ks, kt[:pos] + kt[pos + 1 :])
                    if merged is None:
                        continue
                    key, sign = merged
                    accumulate(key, df * g, -sign_l * sign)
        return self._clean(out)

    # -- construction and evaluation -----------------------------------------

    def vector_field(self, coeffs: Mapping[int, LocalizedPoly]) -> VecPayload:
        out = {}
        for i, c in coeffs.items():
            if i not in self.deriv_indices:
                raise AlgebraError(f"{self.chart.variables[i]} is not a derivation variable")
            if not c.is_zero():
                out[(i,)] = c
        return out

    def term(self, indices: VecKey, coeff: LocalizedPoly) -> VecPayload:
        indices = tuple(indices)
        if list(indices) != sorted(set(indices)):
            raise AlgebraError("polyvector keys must be strictly increasing")
        for i in indices:
            if i not in self.deriv_indices:
                raise AlgebraError("index outside the derivation variables")
        if coeff.is_zero():
            return {}
        return {indices: coeff}

    def eval_derivation(self, x: VecPayload, c: LocalizedPoly) -> LocalizedPoly:
        """Apply a degree-0 payload (vector field) to an algebra element."""
        out = self.chart.zero()
        for ks, f in x.items():
            if len(ks) != 1:
                raise AlgebraError("eval_derivation expects a vector field")
            out = out + f * c.derivative(ks[0])
        return out

    def wedge_eval(self, x: VecPayload, c1: LocalizedPoly, c2: LocalizedPoly) -> LocalizedPoly:
        """Pairing of a bivector against two functions, normalized with the
        1/2 factor: (g1 ^ g2)(c1, c2) = 1/2 (g1(c1) g2(c2) - g1(c2) g2(c1)),
        matching the antisymmetrization embedding into cochains."""
        if any(len(ks) != 2 for ks in x):
            raise AlgebraError("wedge_eval expects a bivector")
        used = {i for ks in x for i in ks}
        d1 = {i: c1.derivative(i) for i in used}
        d2 = {i: c2.derivative(i) for i in used}
        out = self.chart.zero()
        for (i, j), f in x.items():
            out = out + f * (d1[i] * d2[j] - d2[i] * d1[j])
        return out.scale(Fraction(1, 2))

    def _render_key(self, key: VecKey) -> str:
        return "^".join(f"d{self.chart.variables[i]}" for i in key)

    def act_once(self, log: DGLAElement, u: DGLAElement) -> DGLAElement:
        """ad(log) on a function: the vector field's derivative."""
        return log.bracket(u)

    def window_keys(self, degree: int, slot_bound: int):
        """The keys of a degree-``degree`` unknown: every increasing index
        tuple (a polyvector has no slot orders to bound)."""
        return itertools.combinations(self.deriv_indices, degree + 1)

    def structure_from_mc(self, mc: MCElement, cert_degree: Optional[int]) -> "PoissonStructure":
        return poisson_from_mc(mc)

    def cert_degree(self, elements: Sequence[DGLAElement], requested: Optional[int]) -> int:
        """Monomial degree of an operator comparison: 3 unless requested."""
        return 3 if requested is None else requested


# ---------------------------------------------------------------------------
# R (x) C elements and the module-level operations
# ---------------------------------------------------------------------------


def schouten(x: DGLAElement, y: DGLAElement) -> DGLAElement:
    """Schouten bracket on R-extended polyvectors (alias of .bracket)."""
    if not isinstance(x.carrier, PolyvecCarrier):
        raise AlgebraError("schouten expects polyvector elements")
    return x.bracket(y)


class PoissonStructure(InducedStructure):
    """MC bivector beta plus the induced bracket {c1, c2}_beta, which is
    both its ``op`` and its ``bracket``."""

    def bracket(self, u: DGLAElement, v: DGLAElement) -> DGLAElement:
        """R-bilinear extension of the wedge pairing of beta."""
        car = self.carrier
        zero = car.chart.zero()
        pair = lambda biv, uc, vc: car.from_coeff(car.wedge_eval(biv, uc.get((), zero), vc.get((), zero)))
        parts = self.algebra.extend(pair, car.add, self.beta.element.parts, u.parts, v.parts)
        return DGLAElement(car, self.algebra, -1, parts)

    op = bracket


def poisson_from_mc(beta: DGLAElement | MCElement) -> PoissonStructure:
    mc = beta if isinstance(beta, MCElement) else require_mc(beta)
    return PoissonStructure(mc)
