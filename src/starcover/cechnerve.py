"""Combinatorial cover nerves with presented face algebras; transport of
polyvectors and polydifferential cochains along restriction maps; the ordered
Cech cosimplicial DG Lie algebra; refinements; and exact Cech cohomology on
finite-dimensional coefficient layers.

A nerve is a downward-closed set of strictly increasing index tuples
("present faces"; absent tuples are covers' empty intersections, whose ring
of sections is zero).  Restriction maps are given on codimension-1 inclusions
and composed; functoriality (path independence) is validated at build time.

A restriction map carries variable images and the pushforwards of the
coordinate derivations; the latter are derived from the Jacobian when it is
invertible against the declared denominators, or supplied explicitly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .exactalg import (
    AlgebraError,
    ChartAlgebra,
    ExactSystem,
    Exponent,
    LocalizedPoly,
    Poly,
    QQ,
)
from .dgla import Carrier, DGLAElement, NestedCarrier
from .polyvec import PolyvecCarrier, merge_odd
from .polydiff import PolydiffCarrier

Face = tuple[int, ...]


class NerveError(AlgebraError):
    pass


# ---------------------------------------------------------------------------
# the two flavours
# ---------------------------------------------------------------------------

# The one table of flavour and kind names: each chart-carrier class carries
# its own ('poisson'/'polyvec' and 'associative'/'polydiff'), and what
# differs between the flavours hangs off the class.
CHART_CARRIERS = (PolyvecCarrier, PolydiffCarrier)


def carrier_of_flavor(flavor: str) -> type:
    for cls in CHART_CARRIERS:
        if cls.flavor == flavor:
            return cls
    raise AlgebraError(f"unknown flavor {flavor!r}")


def carrier_of_kind(kind: str) -> type:
    for cls in CHART_CARRIERS:
        if cls.kind == kind:
            return cls
    raise AlgebraError(f"unknown carrier kind {kind!r}")


# ---------------------------------------------------------------------------
# restriction maps and payload transport
# ---------------------------------------------------------------------------


@dataclass
class RestrictionMap:
    source: ChartAlgebra
    target: ChartAlgebra
    var_images: tuple[LocalizedPoly, ...]
    deriv_images: tuple[dict, ...]  # polyvec degree-0 payloads over target

    def __post_init__(self):
        if len(self.var_images) != len(self.source.variables):
            raise NerveError("need an image for every source variable")
        for img in self.var_images:
            if img.chart != self.target:
                raise NerveError("variable image in the wrong chart")
        # a plain attribute, not a field: equality of maps stays structural
        self._identity: Optional[bool] = None

    @staticmethod
    def build(
        source: ChartAlgebra,
        target: ChartAlgebra,
        var_images: Sequence[LocalizedPoly],
        deriv_images: Optional[Sequence[dict]] = None,
    ) -> "RestrictionMap":
        var_images = tuple(var_images)
        if deriv_images is None:
            deriv_images = _derive_derivations(source, target, var_images)
        rm = RestrictionMap(source, target, var_images, tuple(deriv_images))
        rm.validate()
        return rm

    @staticmethod
    def identity_like(source: ChartAlgebra, target: ChartAlgebra) -> "RestrictionMap":
        """Same variables, target possibly more localized."""
        if source.variables != target.variables:
            raise NerveError("identity_like needs equal variable tuples")
        images = [target.var(v) for v in source.variables]
        derivs = [
            PolyvecCarrier(target).vector_field({i: target.one()})
            for i in range(len(target.variables))
        ]
        return RestrictionMap(source, target, tuple(images), tuple(derivs))

    def validate(self) -> None:
        tcar = PolyvecCarrier(self.target)
        n = len(self.source.variables)
        if n and len(self.deriv_images) != n:
            raise NerveError("need a derivation image for every source variable")
        # declared denominators must become units
        for d in self.source.denominators:
            img = d.substitute(self.var_images) if n else LocalizedPoly.const(self.target, d.constant_value())
            img.invert()
        # chain rule D_i(img(x_j)) = delta_ij
        for i in range(n):
            for j in range(n):
                val = tcar.eval_derivation(self.deriv_images[i], self.var_images[j])
                want = self.target.one() if i == j else self.target.zero()
                if val != want:
                    raise NerveError(
                        f"derivation transport violates the chain rule at "
                        f"({self.source.variables[i]}, {self.source.variables[j]})"
                    )

    def is_identity(self) -> bool:
        """The identity of one chart: source equal to target, every variable
        sent to itself and every coordinate derivation to itself.  Decided on
        the generators, so maps made by ``build`` count too; computed once."""
        if self._identity is None:
            chart = self.target
            self._identity = (
                self.source == chart
                and len(self.deriv_images) == len(chart.variables)
                and all(img == chart.var(v) for img, v in zip(self.var_images, chart.variables))
                and all(D == {(i,): chart.one()} for i, D in enumerate(self.deriv_images))
            )
        return self._identity

    def transport(self, kind: str, payload: dict, tdim: int = 0) -> dict:
        """Push a polyvec or polydiff payload along the map, with ``tdim``
        inert simplex coordinates on both charts.  Along the identity the
        payload comes back unchanged; every other map takes the general
        route, which is the oracle for that shortcut in the tests."""
        cls = carrier_of_kind(kind)
        if self.is_identity():
            return dict(payload)
        rm = self.extended(tdim) if tdim else self
        if cls is PolyvecCarrier:
            return _transport_polyvec(rm, payload)
        src_car = PolydiffCarrier(rm.source, range(len(self.source.variables)))
        tgt_car = PolydiffCarrier(rm.target, range(len(self.target.variables)))
        return _transport_polydiff(rm, payload, src_car, tgt_car)

    def apply_scalar(self, c: LocalizedPoly) -> LocalizedPoly:
        if c.chart != self.source:
            raise NerveError("scalar not over the source chart")
        if not self.source.variables:
            return LocalizedPoly.const(self.target, c.numer.constant_value())
        return c.substitute(self.target, self.var_images)

    def compose(self, then: "RestrictionMap") -> "RestrictionMap":
        """self: A -> B composed with then: B -> C, giving A -> C."""
        if self.target != then.source:
            raise NerveError("restriction maps do not compose")
        images = tuple(then.apply_scalar(img) for img in self.var_images)
        derivs = tuple(
            _transport_polyvec(then, pay) for pay in self.deriv_images
        )
        return RestrictionMap(self.source, then.target, images, derivs)

    def equal_on_generators(self, other: "RestrictionMap") -> bool:
        if (self.source, self.target) != (other.source, other.target):
            return False
        if any(a != b for a, b in zip(self.var_images, other.var_images)):
            return False
        car = PolyvecCarrier(self.target)
        return all(car.eq(a, b) for a, b in zip(self.deriv_images, other.deriv_images))

    def extended(self, tdim: int) -> "RestrictionMap":
        """The same map between t-extended charts (simplex coordinates inert)."""
        src = extend_chart(self.source, tdim)
        tgt = extend_chart(self.target, tdim)
        images = [
            _lift_localized(img, self.target, tgt) for img in self.var_images
        ]
        for k in range(tdim):
            images.append(tgt.var(f"t{k + 1}"))
        derivs = []
        for pay in self.deriv_images:
            derivs.append({ks: _lift_localized(v, self.target, tgt) for ks, v in pay.items()})
        return RestrictionMap(src, tgt, tuple(images), tuple(derivs))


def _derive_derivations(
    source: ChartAlgebra, target: ChartAlgebra, var_images: Sequence[LocalizedPoly]
) -> tuple[dict, ...]:
    """Solve the chain rule D_i(img(x_j)) = delta_ij for vector fields D_i on
    the target: invert the Jacobian over the localized chart (adjugate over
    determinant; the determinant must be a declared unit)."""
    n = len(source.variables)
    if n == 0:
        return ()
    m = len(target.variables)
    if n != m:
        raise NerveError(
            "cannot derive derivation images when variable counts differ; "
            "supply them explicitly"
        )
    J = [[var_images[j].derivative(k) for k in range(m)] for j in range(n)]
    det = _det(J, target)
    det_inv = det.invert()  # raises when not a unit
    adj = _adjugate(J, target)
    derivs = []
    car = PolyvecCarrier(target)
    for i in range(n):
        coeffs = {}
        for k in range(m):
            # (J^{-1})_{k i}-style entry: D_i = sum_k (adj_{k i}/det) d/dy_k
            val = adj[k][i] * det_inv
            if not val.is_zero():
                coeffs[k] = val
        derivs.append(car.vector_field(coeffs))
    return tuple(derivs)


def _det(M: list[list[LocalizedPoly]], chart: ChartAlgebra) -> LocalizedPoly:
    n = len(M)
    if n == 1:
        return M[0][0]
    out = chart.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * _det(minor, chart)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _adjugate(M: list[list[LocalizedPoly]], chart: ChartAlgebra) -> list[list[LocalizedPoly]]:
    n = len(M)
    if n == 1:
        return [[chart.one()]]
    adj = [[chart.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [M[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            cof = _det(minor, chart)
            adj[j][i] = cof if (i + j) % 2 == 0 else -cof
    return adj


def _transport_polyvec(rm: RestrictionMap, payload: dict) -> dict:
    """Push a polyvector payload along a restriction map."""
    car = PolyvecCarrier(rm.target)
    out = car.zero()
    for ks, f in payload.items():
        base = rm.apply_scalar(f)
        if base.is_zero():
            continue
        # coefficient times the wedge of the transported coordinate thetas
        cur = {(): base}
        dead = False
        for i in ks:
            nxt: dict = {}
            D = rm.deriv_images[i]
            for key, c in cur.items():
                for dkey, g in D.items():
                    merged = merge_odd(key, dkey)
                    if merged is None:
                        continue
                    mk, sign = merged
                    val = (c * g).scale(sign)
                    nxt[mk] = nxt[mk] + val if mk in nxt else val
            cur = {k: v for k, v in nxt.items() if not v.is_zero()}
            if not cur:
                dead = True
                break
        if dead:
            continue
        out = car.add(out, cur)
    return out


def _transport_slotop(rm: RestrictionMap, alpha: Exponent, src_deriv: Sequence[int], tgt_car: PolydiffCarrier) -> dict:
    """Transport the single-slot operator d^alpha: returns {target multi ->
    coefficient}.  Composes the pushforward vector fields (they commute)."""
    pos_of = {v: k for k, v in enumerate(tgt_car.deriv_indices)}
    zero = tgt_car.zero_index()
    cur = {zero: rm.target.one()}
    for pos, k in enumerate(alpha):
        D = rm.deriv_images[src_deriv[pos]]
        for _ in range(k):
            nxt: dict = {}

            def acc(mi, val):
                if mi in nxt:
                    nxt[mi] = nxt[mi] + val
                else:
                    nxt[mi] = val

            for mi, c in cur.items():
                for dkey, g in D.items():
                    v = dkey[0]
                    # D o (c * d^mi) = g*(d_v c)*d^mi + g*c*d^{mi+e_v}
                    dc = c.derivative(v)
                    if not dc.is_zero():
                        acc(mi, g * dc)
                    e = list(mi)
                    e[pos_of[v]] += 1
                    acc(tuple(e), g * c)
            cur = {mi: v for mi, v in nxt.items() if not v.is_zero()}
            if not cur:
                return {}
    return cur


def _transport_polydiff(rm: RestrictionMap, payload: dict, src_car: PolydiffCarrier, tgt_car: PolydiffCarrier) -> dict:
    out: dict = {}
    for slots, f in payload.items():
        base = rm.apply_scalar(f)
        if base.is_zero():
            continue
        pieces = [ _transport_slotop(rm, a, src_car.deriv_indices, tgt_car) for a in slots ]
        if any(not p for p in pieces):
            continue
        for combo in itertools.product(*[list(p.items()) for p in pieces]):
            coeff = base
            new_slots = []
            for mi, c in combo:
                coeff = coeff * c
                new_slots.append(mi)
            if coeff.is_zero():
                continue
            key = tuple(new_slots)
            out[key] = out[key] + coeff if key in out else coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def extend_chart(chart: ChartAlgebra, tdim: int) -> ChartAlgebra:
    """Append simplex coordinates t1..t_tdim as inert polynomial variables."""
    if tdim == 0:
        return chart
    variables = chart.variables + tuple(f"t{i}" for i in range(1, tdim + 1))
    dens = tuple(_lift_poly(d, len(chart.variables), tdim) for d in chart.denominators)
    return ChartAlgebra(variables, dens)


def _lift_poly(p: Poly, nvars: int, tdim: int) -> Poly:
    new_vars = tuple(p.variables) + tuple(f"t{i}" for i in range(1, tdim + 1))
    return Poly._raw(new_vars, {e + (0,) * tdim: c for e, c in p.terms.items()})


def _lift_localized(c: LocalizedPoly, old: ChartAlgebra, new: ChartAlgebra) -> LocalizedPoly:
    tdim = len(new.variables) - len(old.variables)
    return LocalizedPoly._raw(new, _lift_poly(c.numer, len(old.variables), tdim), c.powers)


# ---------------------------------------------------------------------------
# the nerve
# ---------------------------------------------------------------------------


class CoverNerve:
    """Ordered combinatorial cover: present faces with chart algebras and
    validated restriction maps."""

    def __init__(
        self,
        indices: Sequence[str],
        face_algebras: Mapping[Face, ChartAlgebra],
        restrictions: Mapping[tuple[Face, Face], RestrictionMap],
    ):
        self.indices = tuple(indices)
        self.faces = set(face_algebras)
        self.face_algebras = dict(face_algebras)
        self._codim1 = dict(restrictions)
        self._rest_cache: dict[tuple[Face, Face], RestrictionMap] = {}
        self._validate()

    # -- structure -----------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.indices)
        for f in self.faces:
            if list(f) != sorted(set(f)) or any(not (0 <= i < n) for i in f):
                raise NerveError(f"face {f} is not a strictly increasing index tuple")
            if len(f) >= 2:
                for sub in itertools.combinations(f, len(f) - 1):
                    if sub not in self.faces:
                        raise NerveError(f"faces are not downward closed at {f}")
        for k in range(n):
            if (k,) not in self.faces:
                raise NerveError(f"chart ({k},) missing from the cover")
        for (f, g), rm in self._codim1.items():
            if f not in self.faces or g not in self.faces:
                raise NerveError(f"restriction between absent faces ({f}, {g})")
            if not _is_codim1_inclusion(f, g):
                raise NerveError(f"restriction key ({f}, {g}) is not a codim-1 inclusion")
            if rm.source != self.face_algebras[f] or rm.target != self.face_algebras[g]:
                raise NerveError(f"restriction ({f}, {g}) over the wrong algebras")
        for f in self.faces:
            for g in self.faces:
                if _is_codim1_inclusion(f, g) and (f, g) not in self._codim1:
                    raise NerveError(f"missing restriction for {f} in {g}")
        # functoriality: all codim-2 paths agree
        for f in self.faces:
            for g in self.faces:
                if len(g) != len(f) + 2 or not set(f) <= set(g):
                    continue
                paths = []
                for h in self.faces:
                    if len(h) == len(f) + 1 and set(f) <= set(h) <= set(g):
                        paths.append(self._codim1[(f, h)].compose(self._codim1[(h, g)]))
                for other in paths[1:]:
                    if not paths[0].equal_on_generators(other):
                        raise NerveError(
                            f"restriction functoriality fails on the face triple "
                            f"{f} in ... in {g}"
                        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoverNerve):
            return NotImplemented
        if self is other:
            return True
        if (
            self.indices != other.indices
            or self.faces != other.faces
            or self.face_algebras != other.face_algebras
        ):
            return False
        for key, rm in self._codim1.items():
            if key not in other._codim1:
                return False
            if not rm.equal_on_generators(other._codim1[key]):
                return False
        return True

    def __hash__(self):
        return hash((self.indices, frozenset(self.faces)))

    def level_faces(self, p: int) -> list[Face]:
        return sorted(f for f in self.faces if len(f) == p + 1)

    def cofaces(self, f: Face) -> list[tuple[Face, int]]:
        """[(g, (-1)**i)] for each present face g that is f with one index
        inserted at position i, in level_faces order: the faces and signs of
        the Cech coboundary out of f."""
        return [
            (g, (-1) ** i)
            for g in self.level_faces(len(f))
            for i in range(len(g))
            if g[:i] + g[i + 1 :] == f
        ]

    def max_level(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def algebra(self, face: Face) -> ChartAlgebra:
        return self.face_algebras[face]

    def restriction(self, f: Face, g: Face) -> RestrictionMap:
        """Composite restriction along any inclusion f <= g."""
        f, g = tuple(f), tuple(g)
        key = (f, g)
        if key in self._rest_cache:
            return self._rest_cache[key]
        if f == g:
            out = RestrictionMap.identity_like(self.face_algebras[f], self.face_algebras[f])
        elif _is_codim1_inclusion(f, g):
            out = self._codim1[key]
        else:
            extra = sorted(set(g) - set(f))
            mid = tuple(sorted(set(f) | {extra[0]}))
            out = self.restriction(f, mid).compose(self.restriction(mid, g))
        self._rest_cache[key] = out
        return out

    def label(self, face: Face) -> str:
        return ",".join(self.indices[i] for i in face)


def _is_codim1_inclusion(f: Face, g: Face) -> bool:
    return len(g) == len(f) + 1 and set(f) <= set(g)


def build_nerve(
    indices: Sequence[str],
    face_algebras: Mapping[Sequence[int], ChartAlgebra],
    restrictions: Mapping[tuple, RestrictionMap | dict],
) -> CoverNerve:
    """Construct and validate a nerve.  Restriction values may be
    RestrictionMaps or {'images': [...], 'derivations': [...] or None}."""
    algebras = {tuple(f): a for f, a in face_algebras.items()}
    rms: dict[tuple[Face, Face], RestrictionMap] = {}
    for (f, g), val in restrictions.items():
        f, g = tuple(f), tuple(g)
        if isinstance(val, RestrictionMap):
            rms[(f, g)] = val
        else:
            rms[(f, g)] = RestrictionMap.build(
                algebras[f], algebras[g], val["images"], val.get("derivations")
            )
    return CoverNerve(indices, algebras, rms)


def constant_nerve(indices: Sequence[str], faces: Sequence[Sequence[int]]) -> CoverNerve:
    """Nerve with the constant presentation (no variables) on every face."""
    const = ChartAlgebra(())
    algebras = {tuple(f): const for f in faces}
    rms = {}
    ident = RestrictionMap(const, const, (), ())
    for f in algebras:
        for g in algebras:
            if _is_codim1_inclusion(f, g):
                rms[(f, g)] = ident
    return CoverNerve(indices, algebras, rms)


# ---------------------------------------------------------------------------
# the Cech cosimplicial DG Lie algebra
# ---------------------------------------------------------------------------


class CechCarrier(NestedCarrier):
    """Level-p component of the ordered Cech construction: the product over
    present p-faces of the face DG Lie algebras (polyvec or polydiff),
    optionally over t-extended charts (Thom-Sullivan use)."""

    def __init__(self, nerve: CoverNerve, kind: str, level: int, tdim: int = 0):
        cls = carrier_of_kind(kind)
        self.nerve = nerve
        self.kind = kind
        self.level = level
        self.tdim = tdim
        self.face_carriers: dict[Face, Carrier] = {}
        for f in nerve.level_faces(level):
            chart = extend_chart(nerve.algebra(f), tdim)
            self.face_carriers[f] = cls(chart, range(len(nerve.algebra(f).variables)))

    def __eq__(self, other):
        return (
            isinstance(other, CechCarrier)
            and self.nerve == other.nerve
            and self.kind == other.kind
            and self.level == other.level
            and self.tdim == other.tdim
        )

    def __hash__(self):
        return hash((self.nerve, self.kind, self.level, self.tdim))

    def inner(self, face: Face) -> Carrier:
        return self.face_carriers[face]

    def d(self, x, degree: int):
        return self._clean({f: self.face_carriers[f].d(v, degree) for f, v in x.items()})

    def bracket(self, x, y, dx: int, dy: int):
        out = {}
        for f in set(x) & set(y):
            car = self.face_carriers[f]
            v = car.bracket(x[f], y[f], dx, dy)
            if not car.is_zero(v):
                out[f] = v
        return out

    def render(self, x, degree: int) -> str:
        if not x:
            return "0"
        chunks = []
        for f in sorted(x):
            chunks.append(f"[{self.nerve.label(f)}] {self.face_carriers[f].render(x[f], degree)}")
        return "; ".join(chunks)


def transport_payload(nerve: CoverNerve, kind: str, f: Face, g: Face, payload, tdim: int = 0):
    """Push a face payload from face f to a larger face g."""
    return nerve.restriction(f, g).transport(kind, payload, tdim)


def push_payload(
    nerve: CoverNerve, kind: str, alpha: Sequence[int], q: int, payload, tdim: int = 0
):
    """The payload map of g(alpha) for alpha: [p] -> [q]: the component at a
    present q-face tau is the transport of the component at the support of
    tau o alpha (t-coefficients inert when tdim > 0)."""
    out = {}
    for tau in nerve.level_faces(q):
        support = tuple(sorted({tau[a] for a in alpha}))
        comp = payload.get(support)
        if comp is None:
            continue
        v = transport_payload(nerve, kind, support, tau, comp, tdim)
        if v:
            out[tau] = v
    return out


# ---------------------------------------------------------------------------
# refinements
# ---------------------------------------------------------------------------


@dataclass
class Refinement:
    """rho: K' -> K order-preserving with U'_k inside U_{rho(k)}, realized by
    restriction maps from rho(face)-algebras to the refined face algebras."""

    fine: CoverNerve
    coarse: CoverNerve
    rho: tuple[int, ...]
    face_maps: Mapping[Face, RestrictionMap]  # fine face -> map from coarse support

    def __post_init__(self):
        if any(self.rho[i] > self.rho[i + 1] for i in range(len(self.rho) - 1)):
            raise NerveError("refinement index map must be order preserving")

    def coarse_support(self, fine_face: Face) -> Face:
        return tuple(sorted({self.rho[i] for i in fine_face}))

    def pull_sections(self, element: DGLAElement) -> DGLAElement:
        """rho^*: sections on the coarse nerve -> sections on the fine nerve
        (levelwise)."""
        car = element.carrier
        if not isinstance(car, CechCarrier) or car.nerve != self.coarse:
            raise NerveError("element is not a section over the coarse nerve")
        level = car.level
        out_car = CechCarrier(self.fine, car.kind, level, car.tdim)

        def map_payload(x):
            out = {}
            for tau in self.fine.level_faces(level):
                sup = self.coarse_support(tau)
                if sup not in self.coarse.faces:
                    continue
                comp = x.get(sup)
                if comp is None:
                    continue
                v = self.face_maps[tau].transport(car.kind, comp, car.tdim)
                if not out_car.face_carriers[tau].is_zero(v):
                    out[tau] = v
            return out

        return element.map_payload(map_payload, carrier=out_car)


def identity_refinement(nerve: CoverNerve) -> Refinement:
    maps = {}
    for f in nerve.faces:
        alg = nerve.algebra(f)
        maps[f] = RestrictionMap.identity_like(alg, alg)
    return Refinement(nerve, nerve, tuple(range(len(nerve.indices))), maps)


# ---------------------------------------------------------------------------
# Cech cohomology on finite-dimensional layers
# ---------------------------------------------------------------------------


@dataclass
class LayerSpec:
    """Finite-dimensional coefficient layer: per-face ordered basis of
    monomials (or the constant basis) with degree-preserving restrictions."""

    nerve: CoverNerve
    degree_bound: int  # -1 means constant coefficients Q
    bases: dict = field(default_factory=dict)

    def __post_init__(self):
        for f in self.nerve.faces:
            alg = self.nerve.algebra(f)
            if self.degree_bound < 0:
                self.bases[f] = [alg.one()]
            else:
                if alg.denominators:
                    raise NerveError(
                        "degree-truncated layers need denominator-free charts"
                    )
                self.bases[f] = alg.monomials_up_to(self.degree_bound)
        if self.degree_bound >= 0:
            for f in self.nerve.faces:
                for g, _ in self.nerve.cofaces(f):
                    for img in self.nerve.restriction(f, g).var_images:
                        if not img.is_polynomial() or img.numer.total_degree() > 1:
                            raise NerveError(
                                "restriction maps do not preserve the requested "
                                "degree truncation"
                            )

    def dim(self, face: Face) -> int:
        return len(self.bases[face])

    def expand(self, face: Face, value: LocalizedPoly) -> list[Fraction]:
        coords = [QQ(0)] * self.dim(face)
        if value.is_zero():
            return coords
        if self.degree_bound < 0:
            coords[0] = value.numer.constant_value()
            return coords
        index = {b.numer.leading()[0]: i for i, b in enumerate(self.bases[face])}
        for e, c in value.numer.terms.items():
            if e not in index:
                raise NerveError("value outside the truncated layer")
            coords[index[e]] = c
        return coords

    def restrict_coords(self, f: Face, g: Face, coords: Sequence[Fraction]) -> list[Fraction]:
        rm = self.nerve.restriction(f, g)
        out = [QQ(0)] * self.dim(g)
        for i, c in enumerate(coords):
            if c == 0:
                continue
            img = rm.apply_scalar(self.bases[f][i])
            for j, v in enumerate(self.expand(g, img)):
                out[j] += c * v
        return out


class CechComplex:
    """The ordered Cech complex of a layer, with exact ranks, representative
    cocycles, and a coboundary solver."""

    def __init__(self, layer: LayerSpec):
        self.layer = layer
        self.nerve = layer.nerve
        self.levels = self.nerve.max_level()
        self.slots: dict[int, list[tuple[Face, int]]] = {}
        for p in range(self.levels + 1):
            self.slots[p] = [
                (f, i)
                for f in self.nerve.level_faces(p)
                for i in range(layer.dim(f))
            ]

    def dim(self, p: int) -> int:
        return len(self.slots.get(p, []))

    def delta_system(self, p: int) -> ExactSystem:
        """delta: C^p -> C^{p+1}, (delta c)_g = sum_i (-1)^i c_{g minus i}, as
        a system whose columns are the slots (face, basis index) of C^p and
        whose rows are those of C^{p+1}."""
        system = ExactSystem(self.slots.get(p, []))
        for f in self.nerve.level_faces(p):
            for g, sign in self.nerve.cofaces(f):
                for i in range(self.layer.dim(f)):
                    coords = [QQ(0)] * self.layer.dim(f)
                    coords[i] = QQ(1)
                    out = self.layer.restrict_coords(f, g, coords)
                    for j, v in enumerate(out):
                        if v != 0:
                            system.add((g, j), (f, i), sign * v)
        return system

    def betti(self) -> list[int]:
        out = []
        prev_rank = 0
        for p in range(self.levels + 1):
            rank = self.delta_system(p).solve().rank
            out.append(self.dim(p) - rank - prev_rank)
            prev_rank = rank
        return out

    def representative_cocycles(self, p: int) -> list[dict]:
        """Cocycles whose classes form a basis of H^p: the kernel vectors of
        delta^p that lie outside the span of the coboundaries and of the
        kernel vectors before them.  They are found in one elimination of
        delta^{p-1} with the kernel vectors appended as columns: pivots are
        taken in column order, so a kernel column is a pivot exactly when it
        is independent of the columns before it."""
        kernel = self.delta_system(p).solve().kernel
        system = self.delta_system(p - 1)
        for j, z in enumerate(kernel):
            system.add_column(("z", j))
            for row, v in z.items():
                system.add(row, ("z", j), v)
        # a kernel vector is 1 at its free column, the last key it holds
        dependent = {list(vec)[-1] for vec in system.solve().kernel}
        return [
            self._unflatten(z) for j, z in enumerate(kernel) if ("z", j) not in dependent
        ]

    def coboundary_solve(self, p: int, cocycle: dict) -> Optional[dict]:
        """Solve delta b = cocycle with b in C^{p-1}; None when no solution."""
        if p == 0:
            return None if any(any(v != 0 for v in c) for c in cocycle.values()) else {}
        system = self.delta_system(p - 1)
        for f, i in self.slots[p]:
            coords = cocycle.get(f)
            if coords is not None:
                system.add_rhs((f, i), QQ(coords[i]))
        res = system.solve()
        if not res.consistent:
            return None
        return self._unflatten(res.particular)

    def _unflatten(self, vec: dict) -> dict:
        """{(face, basis index) -> value} -> {face -> coordinate list}."""
        out: dict = {}
        for (f, i), v in vec.items():
            if f not in out:
                out[f] = [QQ(0)] * self.layer.dim(f)
            out[f][i] = v
        return out


def cech_cohomology(nerve: CoverNerve, degree_bound: int = -1) -> CechComplex:
    """Exact Cech cohomology of the layer (constant Q when degree_bound < 0,
    else polynomial coefficients truncated at that total degree)."""
    return CechComplex(LayerSpec(nerve, degree_bound))


# ---------------------------------------------------------------------------
# standard nerves used by tests and examples
# ---------------------------------------------------------------------------


OCTAHEDRON_TRIANGLES = [
    (0, 2, 4), (0, 2, 5), (0, 3, 4), (0, 3, 5),
    (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5),
]


def octahedron_nerve() -> CoverNerve:
    """Boundary of the octahedron (a triangulated 2-sphere): 6 charts with
    antipodal pairs (0,1), (2,3), (4,5) never meeting; constant presentation."""
    faces = [(i,) for i in range(6)]
    edges = set()
    for t in OCTAHEDRON_TRIANGLES:
        for e in itertools.combinations(t, 2):
            edges.add(e)
    faces.extend(sorted(edges))
    faces.extend(OCTAHEDRON_TRIANGLES)
    return constant_nerve([f"U{i}" for i in range(6)], faces)
