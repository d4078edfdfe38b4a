"""Truncated parameter algebras (R, m) with filtered monomial bases.

Only monomial quotients are supported: R = Q[gens] / (all monomials of total
degree > order, plus optional extra monomial relations).  Every surviving
monomial is a filtered basis element, ordered graded-lex, and the
multiplication constants are 0/1.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Any, Callable, Mapping, Optional, Sequence

from .exactalg import AlgebraError, Exponent, QQ, _compositions, grlex_key

INFINITY = math.inf


class ParamAlgebra:
    """Local artinian monomial quotient Q[gens]/(m^{order+1} + extra)."""

    __slots__ = ("gens", "order", "extra_relations", "basis", "index", "_products")

    def __init__(
        self,
        gens: Sequence[str],
        order: int,
        extra_relations: Sequence[Exponent] = (),
    ):
        if order < 1:
            raise AlgebraError("truncation order must be >= 1")
        gens = tuple(gens)
        extra = []
        for e in extra_relations:
            e = tuple(int(x) for x in e)
            if len(e) != len(gens) or any(x < 0 for x in e) or sum(e) == 0:
                raise AlgebraError(f"bad monomial relation {e}")
            extra.append(e)
        extra_relations = tuple(sorted(extra, key=grlex_key))

        basis: list[Exponent] = []
        for total in range(order + 1):
            for e in _compositions(total, len(gens)):
                if any(_divides(rel, e) for rel in extra_relations):
                    continue
                basis.append(e)
        basis.sort(key=grlex_key)
        self.gens = gens
        self.order = order
        self.extra_relations = extra_relations
        self.basis = basis
        self.index = {e: i for i, e in enumerate(basis)}
        self._products: dict[tuple[int, int], Optional[int]] = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParamAlgebra)
            and self.gens == other.gens
            and self.order == other.order
            and self.extra_relations == other.extra_relations
        )

    def __hash__(self):
        return hash((self.gens, self.order, self.extra_relations))

    def basis_order(self, i: int) -> int:
        return sum(self.basis[i])

    def mul_index(self, i: int, j: int) -> Optional[int]:
        """Index k with r_i * r_j = r_k, or None when the product dies;
        memoized per pair on first use."""
        try:
            return self._products[i, j]
        except KeyError:
            e = tuple(a + b for a, b in zip(self.basis[i], self.basis[j]))
            k = self._products[i, j] = self.index.get(e)
            return k

    def extend(self, op: Callable, add: Callable, *factors: Mapping[int, Any]) -> dict:
        """R-multilinear extension of ``op`` to elements {basis index: value}:
        {k: sum by ``add`` of op(x_1, ..., x_n)} over one item (i_m, x_m) of
        each factor with r_i1 ... r_in = r_k, in nested-loop order (the first
        factor outermost).  A product that dies, or an op value of None,
        contributes nothing."""
        mul = self.mul_index
        first, *rest = factors
        terms = [(i, (x,)) for i, x in first.items()]
        for factor in rest:
            items = list(factor.items())
            terms = [(k, xs + (x,)) for i, xs in terms for j, x in items
                     if (k := mul(i, j)) is not None]
        out: dict = {}
        for k, xs in terms:
            z = op(*xs)
            if z is not None:
                out[k] = add(out[k], z) if k in out else z
        return out

    # -- elements ---------------------------------------------------------

    def zero(self) -> "ParamSeries":
        return ParamSeries(self, {})

    def one(self) -> "ParamSeries":
        return ParamSeries(self, {0: QQ(1)})

    def gen(self, name: str) -> "ParamSeries":
        i = self.gens.index(name)
        e = [0] * len(self.gens)
        e[i] = 1
        k = self.index.get(tuple(e))
        if k is None:
            raise AlgebraError(f"generator {name} is zero in this quotient")
        return ParamSeries(self, {k: QQ(1)})

    def element(self, coeffs: Mapping[int, Fraction]) -> "ParamSeries":
        return ParamSeries(self, coeffs)

    def render(self) -> str:
        return f"param-algebra {{ gens = [{', '.join(self.gens)}]; order = {self.order} }}"

    def check_ideal_dies(self, target: "ParamAlgebra", gen_images) -> None:
        """The truncation ideal is generated by the degree-(order+1) monomials
        and the extra relations; their images must vanish in the target."""
        gens_of_ideal = list(self.extra_relations)
        from .exactalg import _compositions

        gens_of_ideal += list(_compositions(self.order + 1, len(self.gens)))
        for e in gens_of_ideal:
            img = target.one()
            for g_img, k in zip(gen_images, e):
                for _ in range(k):
                    img = img * g_img
            if not img.is_zero():
                raise AlgebraError(
                    "generator images do not kill the source truncation ideal"
                )

    def render_basis_monomial(self, i: int) -> str:
        e = self.basis[i]
        if sum(e) == 0:
            return "1"
        return "*".join(
            f"{g}^{k}" if k > 1 else g for g, k in zip(self.gens, e) if k > 0
        )

    def __repr__(self):
        return self.render()


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


class ParamSeries:
    """Element of a ParamAlgebra, expanded against the filtered basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: ParamAlgebra, coeffs: Mapping[int, Fraction]):
        clean: dict[int, Fraction] = {}
        for i, c in coeffs.items():
            if not (0 <= i < len(algebra.basis)):
                raise AlgebraError(f"basis index {i} out of range")
            c = Fraction(c)
            if c != 0:
                clean[i] = clean.get(i, QQ(0)) + c
        self.algebra = algebra
        self.coeffs = {i: c for i, c in clean.items() if c != 0}

    def _check_same(self, other: "ParamSeries") -> None:
        if self.algebra != other.algebra:
            raise AlgebraError("elements of different parameter algebras")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ParamSeries") -> "ParamSeries":
        self._check_same(other)
        coeffs = dict(self.coeffs)
        for i, c in other.coeffs.items():
            coeffs[i] = coeffs.get(i, QQ(0)) + c
        return ParamSeries(self.algebra, coeffs)

    def __neg__(self) -> "ParamSeries":
        return ParamSeries(self.algebra, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "ParamSeries") -> "ParamSeries":
        return self + (-other)

    def __mul__(self, other: "ParamSeries") -> "ParamSeries":
        self._check_same(other)
        alg = self.algebra
        return ParamSeries(alg, alg.extend(operator.mul, operator.add, self.coeffs, other.coeffs))

    def scale(self, c) -> "ParamSeries":
        c = Fraction(c)
        return ParamSeries(self.algebra, {i: c * v for i, v in self.coeffs.items()})

    def __pow__(self, n: int) -> "ParamSeries":
        out = self.algebra.one()
        for _ in range(n):
            out = out * self
        return out

    def adic_order(self):
        """Minimal m-adic order of a nonzero basis coefficient; +inf for 0."""
        if not self.coeffs:
            return INFINITY
        return min(self.algebra.basis_order(i) for i in self.coeffs)

    def graded_part(self, order: int) -> "ParamSeries":
        return ParamSeries(
            self.algebra,
            {i: c for i, c in self.coeffs.items() if self.algebra.basis_order(i) == order},
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ParamSeries)
            and self.algebra == other.algebra
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.algebra, frozenset(self.coeffs.items())))

    def base_change(self, target: ParamAlgebra, gen_images: Sequence["ParamSeries"]) -> "ParamSeries":
        """Ring homomorphism by generator images; each image must have adic
        order >= 1 in the target (sigma(m) in m'), and the source truncation
        ideal must die in the target (well-definedness)."""
        if len(gen_images) != len(self.algebra.gens):
            raise AlgebraError("need an image for every generator")
        for img in gen_images:
            if img.algebra != target:
                raise AlgebraError("generator image in the wrong algebra")
            if img.adic_order() < 1:
                raise AlgebraError("generator image has adic order 0")
        self.algebra.check_ideal_dies(target, gen_images)
        out = target.zero()
        for i, c in self.coeffs.items():
            e = self.algebra.basis[i]
            term = target.one().scale(c)
            for img, k in zip(gen_images, e):
                for _ in range(k):
                    term = term * img
            out = out + term
        return out

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in sorted(self.coeffs, key=lambda i: grlex_key(self.algebra.basis[i])):
            c = self.coeffs[i]
            mono = self.algebra.render_basis_monomial(i)
            if mono == "1":
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"ParamSeries({self.render()!r})"


def param_algebra_truncate(
    gens: Sequence[str], order: int, extra_relations: Sequence[Exponent] = ()
) -> ParamAlgebra:
    """Construct Q[gens]/(m^{order+1} + extra monomial relations)."""
    return ParamAlgebra(gens, order, extra_relations)
