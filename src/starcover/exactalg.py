"""Exact arithmetic foundation: sparse multivariate polynomials over Q,
localized fractions against a declared denominator set, and exact linear
solving.

Coefficients are `fractions.Fraction` throughout; nothing here is ever
floating point.  Polynomial values are immutable after construction and
their operations are pure functions.

Every linear system the library solves is an `ExactSystem`: a sparse
system whose rows and columns are labelled by hashable keys, eliminated by
sparse Gauss-Jordan with pivot columns taken in declaration order.  The
reduced row-echelon form of a system is unique once its column order is
fixed, so the particular solution (free columns set to zero), the kernel
basis and the rank are exactly those of the dense `solve_linear` on the same
matrix; `solve_linear` stays as the public dense entry point and as the
reference the tests compare against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

Exponent = tuple[int, ...]

QQ = Fraction


class AlgebraError(ValueError):
    """Mismatched variable sets / undeclared denominators and friends."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational, got {type(c).__name__}")


def _integral(terms: Mapping[Exponent, Fraction]) -> bool:
    return all(c.denominator == 1 for c in terms.values())


def grlex_key(e: Exponent) -> tuple:
    # graded-lexicographic: total degree first, then lex on exponents
    return (sum(e), e)


class Poly:
    """Sparse multivariate polynomial with Fraction coefficients.

    ``variables`` is the ordered tuple of symbol names; ``terms`` maps
    exponent tuples (length = number of variables) to nonzero coefficients.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Fraction]):
        variables = tuple(variables)
        clean: dict[Exponent, Fraction] = {}
        n = len(variables)
        for e, c in terms.items():
            c = _as_fraction(c)
            if c == 0:
                continue
            e = tuple(int(x) for x in e)
            if len(e) != n or any(x < 0 for x in e):
                raise AlgebraError(f"bad exponent {e} for {n} variables")
            clean[e] = clean.get(e, QQ(0)) + c
        self.variables = variables
        self.terms = {e: c for e, c in clean.items() if c != 0}
        self._hash: Optional[int] = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _raw(variables: tuple[str, ...], terms: dict) -> "Poly":
        # internal fast path: `terms` must already be clean (no zeros, valid
        # exponents); used by arithmetic on already-validated polynomials
        out = object.__new__(Poly)
        out.variables = variables
        out.terms = terms
        out._hash = None
        return out

    @staticmethod
    def zero(variables: Sequence[str]) -> "Poly":
        return Poly(variables, {})

    @staticmethod
    def const(variables: Sequence[str], c) -> "Poly":
        c = _as_fraction(c)
        if c == 0:
            return Poly.zero(variables)
        return Poly(variables, {(0,) * len(variables): c})

    @staticmethod
    def var(variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        i = variables.index(name)
        e = [0] * len(variables)
        e[i] = 1
        return Poly(variables, {tuple(e): QQ(1)})

    @staticmethod
    def monomial(variables: Sequence[str], e: Exponent, c=QQ(1)) -> "Poly":
        return Poly(variables, {tuple(e): _as_fraction(c)})

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return QQ(0)
        if not self.is_constant():
            raise AlgebraError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        # degree of 0 is -1 by convention here
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def _check_same(self, other: "Poly") -> None:
        if self.variables != other.variables:
            raise AlgebraError(
                f"variable sets differ: {self.variables} vs {other.variables}"
            )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e)
            if v is None:
                terms[e] = c
                continue
            if v.denominator == 1 == c.denominator:
                v = Fraction(v.numerator + c.numerator)
            else:
                v = v + c
            if v:
                terms[e] = v
            else:
                del terms[e]
        return Poly._raw(self.variables, terms)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same(other)
        if len(other.terms) == 1 or len(self.terms) == 1:
            # a one-term factor shifts the other's exponents injectively: no
            # sums, no zeros, and the terms in the generic loop's order
            many, one = (self, other) if len(other.terms) == 1 else (other, self)
            (e2, c2), = one.terms.items()
            if not any(e2):
                return Poly._raw(self.variables, {e: c * c2 for e, c in many.terms.items()})
            return Poly._raw(
                self.variables, {tuple(map(add, e, e2)): c * c2 for e, c in many.terms.items()}
            )
        if _integral(self.terms) and _integral(other.terms):
            # every denominator is 1: accumulate the numerators as ints and
            # make one Fraction per surviving term
            right = [(e2, c2.numerator) for e2, c2 in other.terms.items()]
            ints: dict[Exponent, int] = {}
            for e1, c1 in self.terms.items():
                n1 = c1.numerator
                for e2, n2 in right:
                    e = tuple(map(add, e1, e2))
                    ints[e] = ints.get(e, 0) + n1 * n2
            return Poly._raw(self.variables, {e: Fraction(n) for e, n in ints.items() if n})
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                v = terms.get(e)
                terms[e] = c1 * c2 if v is None else v + c1 * c2
        return Poly._raw(self.variables, {e: c for e, c in terms.items() if c != 0})

    def scale(self, c) -> "Poly":
        c = _as_fraction(c)
        if c == 1:
            return self
        if c == -1:
            return -self
        if c == 0:
            return Poly._raw(self.variables, {})
        return Poly._raw(self.variables, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise AlgebraError("negative power of a Poly")
        result = Poly.const(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self, var_index: int) -> "Poly":
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            k = e[var_index]
            if k == 0:
                continue
            e2 = e[:var_index] + (k - 1,) + e[var_index + 1 :]
            v = terms.get(e2)
            terms[e2] = c * k if v is None else v + c * k
        return Poly._raw(self.variables, terms)

    def leading(self) -> tuple[Exponent, Fraction]:
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def divide_exact(self, divisor: "Poly") -> Optional["Poly"]:
        """Exact division; returns the quotient, or None when the divisor
        does not divide self.  Single-divisor graded-lex reduction: if the
        divisor divides self, its leading term divides every intermediate
        leading term, so the loop cannot miss."""
        self._check_same(divisor)
        if divisor.is_zero():
            raise AlgebraError("division by the zero polynomial")
        if self.is_zero():
            return Poly.zero(self.variables)
        de, dc = divisor.leading()
        rem = self
        qterms: dict[Exponent, Fraction] = {}
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                return None
            qc = rc / dc
            qterms[qe] = qterms.get(qe, QQ(0)) + qc
            rem = rem - divisor * Poly.monomial(self.variables, qe, qc)
        return Poly(self.variables, qterms)

    def substitute(self, images: Sequence["LocalizedPoly"]) -> "LocalizedPoly":
        """Substitute each variable by a LocalizedPoly over a common chart."""
        if len(images) != len(self.variables):
            raise AlgebraError("substitution needs an image for every variable")
        if not images:
            raise AlgebraError("substitution into an empty chart is ambiguous")
        chart = images[0].chart
        acc = chart.zero()
        for e, c in self.terms.items():
            term = LocalizedPoly.const(chart, c)
            for img, k in zip(images, e):
                for _ in range(k):
                    term = term * img
            acc = acc + term
        return acc

    def substitute_poly(self, variables: Sequence[str], images: Sequence["Poly"]) -> "Poly":
        """Polynomial-only substitution (used by simplex form pullbacks)."""
        acc = Poly.zero(tuple(variables))
        for e, c in self.terms.items():
            term = Poly.const(tuple(variables), c)
            for img, k in zip(images, e):
                term = term * (img ** k)
            acc = acc + term
        return acc

    # -- comparisons, rendering -------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def render(self) -> str:
        """Canonical text: graded-lex descending, coefficients as a/b."""
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.variables, e)
                if k > 0
            )
            coeff = str(abs(c))
            if mono:
                body = mono if abs(c) == 1 else f"{coeff}*{mono}"
            else:
                body = coeff
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.render()!r})"


@dataclass(frozen=True)
class ChartAlgebra:
    """Presentation of a chart algebra: polynomial variables plus a declared
    finite set of invertible denominators (principal localization data)."""

    variables: tuple[str, ...]
    denominators: tuple[Poly, ...] = ()

    def __post_init__(self):
        for d in self.denominators:
            if d.variables != self.variables:
                raise AlgebraError("denominator over a different variable set")
            if d.is_zero():
                raise AlgebraError("zero declared as a denominator")
        # LocalizedPoly is immutable, so one zero and one unit serve every
        # caller; they are not fields and take no part in equality or hash
        object.__setattr__(self, "_zero", LocalizedPoly.const(self, 0))
        object.__setattr__(self, "_one", LocalizedPoly.const(self, 1))

    def zero(self) -> "LocalizedPoly":
        return self._zero

    def one(self) -> "LocalizedPoly":
        return self._one

    def var(self, name: str) -> "LocalizedPoly":
        return LocalizedPoly(self, Poly.var(self.variables, name))

    def monomials_up_to(self, degree: int) -> list["LocalizedPoly"]:
        """All monomials of total degree <= degree (including 1), graded-lex."""
        out: list[LocalizedPoly] = []
        n = len(self.variables)
        exps: list[Exponent] = []
        for total in range(degree + 1):
            for e in _compositions(total, n):
                exps.append(e)
        exps.sort(key=grlex_key)
        for e in exps:
            out.append(LocalizedPoly(self, Poly.monomial(self.variables, e)))
        return out

    def render(self) -> str:
        dens = ", ".join(d.render() for d in self.denominators)
        return f"chart {{ vars = [{', '.join(self.variables)}]; dens = [{dens}] }}"


def _compositions(total: int, n: int) -> Iterable[Exponent]:
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


class LocalizedPoly:
    """Element numerator / prod(denominators^powers) of a chart algebra.

    The representation is kept reduced: every declared denominator is divided
    out of the numerator while the division is exact and its power positive.
    Equality is decided by cross-multiplication, never by polynomial gcd
    across distinct declared denominators.
    """

    __slots__ = ("chart", "numer", "powers")

    def __init__(self, chart: ChartAlgebra, numer: Poly, powers: Sequence[int] = ()):
        if numer.variables != chart.variables:
            raise AlgebraError("numerator over a different variable set")
        powers = list(powers) if powers else [0] * len(chart.denominators)
        if len(powers) != len(chart.denominators):
            raise AlgebraError("denominator power vector has the wrong length")
        if any(p < 0 for p in powers):
            raise AlgebraError("negative denominator power")
        # reduce: divide out denominators while exactly divisible
        if not numer.is_zero():
            changed = True
            while changed:
                changed = False
                for i, d in enumerate(chart.denominators):
                    while powers[i] > 0:
                        q = numer.divide_exact(d)
                        if q is None:
                            break
                        numer = q
                        powers[i] -= 1
                        changed = True
        else:
            powers = [0] * len(chart.denominators)
        self.chart = chart
        self.numer = numer
        self.powers = tuple(powers)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _raw(chart: ChartAlgebra, numer: Poly, powers: tuple[int, ...]) -> "LocalizedPoly":
        # internal fast path: representation must already be reduced
        out = object.__new__(LocalizedPoly)
        out.chart = chart
        out.numer = numer
        out.powers = powers
        return out

    @staticmethod
    def const(chart: ChartAlgebra, c) -> "LocalizedPoly":
        return LocalizedPoly(chart, Poly.const(chart.variables, c))

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def is_polynomial(self) -> bool:
        return all(p == 0 for p in self.powers)

    def _check_same(self, other: "LocalizedPoly") -> None:
        if self.chart != other.chart:
            raise AlgebraError("elements of different chart algebras")

    def _common(self, other: "LocalizedPoly") -> tuple[Poly, Poly, tuple[int, ...]]:
        common = tuple(max(a, b) for a, b in zip(self.powers, other.powers))
        a, b = self.numer, other.numer
        for i, d in enumerate(self.chart.denominators):
            a = a * d ** (common[i] - self.powers[i])
            b = b * d ** (common[i] - other.powers[i])
        return a, b, common

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "LocalizedPoly") -> "LocalizedPoly":
        self._check_same(other)
        if not any(self.powers) and not any(other.powers):
            return LocalizedPoly._raw(self.chart, self.numer + other.numer, self.powers)
        a, b, common = self._common(other)
        return LocalizedPoly(self.chart, a + b, common)

    def __neg__(self) -> "LocalizedPoly":
        return LocalizedPoly._raw(self.chart, -self.numer, self.powers)

    def __sub__(self, other: "LocalizedPoly") -> "LocalizedPoly":
        return self + (-other)

    def __mul__(self, other: "LocalizedPoly") -> "LocalizedPoly":
        self._check_same(other)
        if not any(self.powers) and not any(other.powers):
            return LocalizedPoly._raw(self.chart, self.numer * other.numer, self.powers)
        powers = tuple(a + b for a, b in zip(self.powers, other.powers))
        return LocalizedPoly(self.chart, self.numer * other.numer, powers)

    def scale(self, c) -> "LocalizedPoly":
        c = _as_fraction(c)
        if c == 0:
            return self.chart.zero()
        return LocalizedPoly._raw(self.chart, self.numer.scale(c), self.powers)

    def __pow__(self, n: int) -> "LocalizedPoly":
        if n < 0:
            return self.invert() ** (-n)
        out = self.chart.one()
        for _ in range(n):
            out = out * self
        return out

    def invert(self) -> "LocalizedPoly":
        """Inverse, when the element is a unit of the localized chart: a
        nonzero rational multiple of a product of declared denominators.
        Raises AlgebraError otherwise (undeclared denominator)."""
        if self.is_zero():
            raise AlgebraError("inverting zero")
        num = self.numer
        den_exp = [0] * len(self.chart.denominators)
        progress = True
        while progress and not num.is_constant():
            progress = False
            for i, d in enumerate(self.chart.denominators):
                q = num.divide_exact(d)
                if q is not None and not q.is_zero():
                    num = q
                    den_exp[i] += 1
                    progress = True
                    break
        if not num.is_constant():
            raise AlgebraError(
                f"element {self.render()} is not invertible against the "
                "declared denominators"
            )
        c = num.constant_value()
        # self = c * prod d^den_exp / prod d^powers; inverse flips both
        numer = Poly.const(self.chart.variables, 1 / c)
        for i, d in enumerate(self.chart.denominators):
            numer = numer * d ** self.powers[i]
        return LocalizedPoly(self.chart, numer, tuple(den_exp))

    def derivative(self, var_index: int) -> "LocalizedPoly":
        """d/dx_i with the quotient rule against declared denominators."""
        # d(p / prod d_j^k_j) = dp / prod d_j^k_j - sum_j k_j p d(d_j) / (d_j prod)
        chart = self.chart
        if not any(self.powers):
            return LocalizedPoly._raw(chart, self.numer.derivative(var_index), self.powers)
        out = LocalizedPoly(chart, self.numer.derivative(var_index), self.powers)
        for j, d in enumerate(chart.denominators):
            k = self.powers[j]
            if k == 0:
                continue
            dd = d.derivative(var_index)
            if dd.is_zero():
                continue
            powers = list(self.powers)
            powers[j] += 1
            out = out + LocalizedPoly(
                chart, (self.numer * dd).scale(-k), tuple(powers)
            )
        return out

    def substitute(
        self, target: ChartAlgebra, images: Sequence["LocalizedPoly"]
    ) -> "LocalizedPoly":
        """Apply the ring homomorphism determined by variable images.

        Every image must live in ``target``; images of declared denominators
        must be invertible there (errors otherwise)."""
        for img in images:
            if img.chart != target:
                raise AlgebraError("substitution image in the wrong chart")
        if not self.chart.variables:
            return LocalizedPoly.const(target, self.numer.constant_value())
        num = self.numer.substitute(images) if images else None
        assert num is not None
        acc = num
        for j, d in enumerate(self.chart.denominators):
            k = self.powers[j]
            if k == 0:
                continue
            dimg = d.substitute(images)
            acc = acc * (dimg.invert() ** k)
        return acc

    # -- comparisons, rendering -------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalizedPoly):
            return NotImplemented
        if self.chart != other.chart:
            return False
        a, b, _ = self._common(other)
        return a == b

    def __hash__(self):
        raise TypeError("LocalizedPoly is unhashable; reduced forms need not be unique")

    def render(self) -> str:
        num = self.numer.render()
        if self.is_polynomial():
            return num
        if len(self.numer.terms) > 1:
            num = f"({num})"
        parts = [num]
        for d, k in zip(self.chart.denominators, self.powers):
            if k == 0:
                continue
            ds = d.render()
            if len(d.terms) > 1 or (len(d.terms) == 1 and not _is_plain_monomial(d)):
                ds = f"({ds})"
            parts.append(f"/{ds}^{k}" if k > 1 else f"/{ds}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LocalizedPoly({self.render()!r})"


def _is_plain_monomial(p: Poly) -> bool:
    if len(p.terms) != 1:
        return False
    ((e, c),) = p.terms.items()
    return c == 1 and sum(e) > 0


# ---------------------------------------------------------------------------
# Exact linear algebra
# ---------------------------------------------------------------------------


@dataclass
class LinSolveResult:
    particular: Optional[list[Fraction]]  # None when the system is inconsistent
    kernel: list[list[Fraction]]

    @property
    def consistent(self) -> bool:
        return self.particular is not None


def solve_linear(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> LinSolveResult:
    """Exact solve of matrix @ v = rhs over Q.

    Returns a particular solution (or None if inconsistent) together with a
    basis of the kernel.  Inconsistency is a return value, not an error.
    """
    rows = [list(map(_as_fraction, row)) for row in matrix]
    b = list(map(_as_fraction, rhs))
    if len(rows) != len(b):
        raise AlgebraError("row count does not match rhs length")
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != ncols:
            raise AlgebraError("ragged matrix")

    aug = [row + [bv] for row, bv in zip(rows, b)]
    nrows = len(aug)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if aug[rr][c] != 0:
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for rr in range(nrows):
            if rr != r and aug[rr][c] != 0:
                f = aug[rr][c]
                aug[rr] = [x - f * y for x, y in zip(aug[rr], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # inconsistency: a zero row with nonzero rhs
    for rr in range(r, nrows):
        if any(aug[rr][c] != 0 for c in range(ncols)):
            # unreachable: rows below r are zero in all pivot columns and
            # were fully eliminated; keep the guard for safety
            continue
        if aug[rr][ncols] != 0:
            return LinSolveResult(None, _kernel_basis(aug, pivots, ncols, r))
    particular = [QQ(0)] * ncols
    for i, c in enumerate(pivots):
        particular[c] = aug[i][ncols]
    return LinSolveResult(particular, _kernel_basis(aug, pivots, ncols, r))


def _kernel_basis(aug, pivots: list[int], ncols: int, rank: int) -> list[list[Fraction]]:
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [QQ(0)] * ncols
        v[free] = QQ(1)
        for i, c in enumerate(pivots):
            v[c] = -aug[i][free]
        basis.append(v)
    return basis


@dataclass
class ExactSolution:
    """Solution of an `ExactSystem`, keyed by its column keys.

    ``particular`` holds the nonzero values of the particular solution in
    column declaration order (free columns are zero), or is None when the
    system is inconsistent; ``kernel`` is a basis of the kernel of the
    matrix, one vector per free column, in declaration order; a vector is 1
    at its free column, which is its last key."""

    particular: Optional[dict]
    rank: int
    kernel: list[dict]

    @property
    def consistent(self) -> bool:
        return self.particular is not None


class ExactSystem:
    """A sparse linear system over Q whose rows and columns are labelled by
    hashable keys.  Columns are declared in order; entries and right-hand
    sides accumulate, and a row exists once anything was added to it."""

    def __init__(self, columns: Iterable[Hashable] = ()):
        self._col: dict = {}  # column key -> position
        self._rows: dict = {}  # row key -> [{position: value}, rhs]
        for key in columns:
            self.add_column(key)

    def add_column(self, key: Hashable) -> None:
        if key in self._col:
            raise AlgebraError(f"column {key!r} declared twice")
        self._col[key] = len(self._col)

    def _row(self, key: Hashable) -> list:
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = [{}, QQ(0)]
        return row

    def add(self, row: Hashable, col: Hashable, value) -> None:
        """Add ``value`` to the matrix entry at (row, col)."""
        j = self._col.get(col)
        if j is None:
            raise AlgebraError(f"column {col!r} was never declared")
        entries = self._row(row)[0]
        entries[j] = entries.get(j, QQ(0)) + _as_fraction(value)

    def add_rhs(self, row: Hashable, value) -> None:
        """Add ``value`` to the right-hand side of ``row``."""
        r = self._row(row)
        r[1] += _as_fraction(value)

    def solve(self) -> ExactSolution:
        pivots, consistent = _eliminate({}, list(self._rows.values()))
        return self._solution(pivots, consistent)

    def solve_prefix(self, block: Callable[[Hashable], int]) -> tuple[ExactSolution, Optional[int]]:
        """Add the rows block by block in ascending ``block(row key)`` and
        stop before the first block that makes the system inconsistent.
        Returns the solution of the rows below that block, and the block
        (None when the whole system is consistent).  Adding rows can only
        lose consistency, so this solves the largest consistent prefix of
        blocks in one elimination."""
        blocks: dict = {}
        for key, row in self._rows.items():
            blocks.setdefault(block(key), []).append(row)
        pivots: dict = {}
        for b in sorted(blocks):
            new, consistent = _eliminate(pivots, blocks[b])
            if not consistent:
                return self._solution(pivots, True), b
            for row in pivots.values():
                for j in [j for j in row[0] if j in new]:
                    row[1] = _subtract(row[0], row[1], row[0][j], new[j])
            pivots.update(new)
        return self._solution(pivots, True), None

    def _solution(self, pivots: dict, consistent: bool) -> ExactSolution:
        keys = list(self._col)
        particular = None
        if consistent:
            particular = {keys[c]: pivots[c][1] for c in sorted(pivots) if pivots[c][1]}
        kernel = {j: {j: QQ(1)} for j in range(len(keys)) if j not in pivots}
        for c, (entries, _) in pivots.items():
            for j, v in entries.items():
                if j != c:
                    kernel[j][c] = -v
        return ExactSolution(
            particular,
            len(pivots),
            [{keys[j]: vec[j] for j in sorted(vec)} for vec in kernel.values()],
        )


def _subtract(entries: dict, rhs: Fraction, f: Fraction, pivot: list) -> Fraction:
    """entries -= f * pivot row, in place; returns rhs - f * pivot rhs."""
    for j, v in pivot[0].items():
        x = entries.get(j, QQ(0)) - f * v
        if x:
            entries[j] = x
        else:
            entries.pop(j, None)
    return rhs - f * pivot[1]


def _eliminate(pivots: dict, rows: Sequence[list]) -> tuple[dict, bool]:
    """Sparse Gauss-Jordan of ``rows`` against the reduced pivot rows
    ``pivots`` ({column: [entries, rhs]}, each scaled to 1 at its pivot and
    zero at every other pivot column), which it does not change.  Pivot
    columns are taken in ascending order and, within a column, the row with
    the fewest entries.  Returns the new pivot rows, reduced against each
    other and against ``pivots``, and whether ``rows`` are consistent."""
    work = []
    for entries, rhs in rows:
        entries = {j: v for j, v in entries.items() if v}
        for c in [c for c in entries if c in pivots]:
            rhs = _subtract(entries, rhs, entries[c], pivots[c])
        work.append([entries, rhs])
    holders: dict = {}  # column -> indices of the rows in `work` not yet pivots
    for i, (entries, _) in enumerate(work):
        for j in entries:
            holders.setdefault(j, set()).add(i)
    queue = list(holders)
    heapq.heapify(queue)
    new: dict = {}
    while queue:
        c = heapq.heappop(queue)
        rows_c = holders.pop(c)
        if not rows_c:
            continue
        p = min(rows_c, key=lambda i: (len(work[i][0]), i))
        rows_c.discard(p)
        entries, rhs = work[p]
        work[p] = None
        for j in entries:
            if j != c:
                holders[j].discard(p)
        pv = entries[c]
        pivot = new[c] = [{j: v / pv for j, v in entries.items()}, rhs / pv]
        for i in rows_c:
            # the rows left hold no column before c, so elimination only
            # fills columns after c and the queue order holds
            row = work[i]
            before = set(row[0])
            row[1] = _subtract(row[0], row[1], row[0][c], pivot)
            for j in before - row[0].keys():
                if j != c:
                    holders[j].discard(i)
            for j in row[0].keys() - before:
                if j not in holders:
                    holders[j] = set()
                    heapq.heappush(queue, j)
                holders[j].add(i)
    consistent = not any(row is not None and row[1] for row in work)
    # back substitution, later pivots first, so each row subtracted is reduced
    for c in sorted(new, reverse=True):
        row = new[c]
        for j in [j for j in row[0] if j != c and j in new]:
            row[1] = _subtract(row[0], row[1], row[0][j], new[j])
    return new, consistent
