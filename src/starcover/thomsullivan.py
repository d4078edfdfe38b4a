"""Thom-Sullivan normalization of the ordered Cech cosimplicial DG Lie
algebra: polynomial-form-valued cochains over the nerve, their total DG Lie
structure, compatibility validation, simplex integration of components, and
the Whitney map used to manufacture compatible elements.

A total-degree-k element stores, for every level l <= max level and every
dt-subset S of {1..l}, a Cech payload of internal degree k - |S| over the
t-extended face charts.  Degenerate-face components are never stored; they
are forced by the codegeneracies, and the coface conditions between stored
levels imply every condition that involves them (see
validate_compatibility).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import AlgebraError, ChartAlgebra, LocalizedPoly, Poly, QQ
from .dgla import Carrier, DGLAElement
from .params import ParamAlgebra
from .cechnerve import (
    CechCarrier,
    CoverNerve,
    extend_chart,
    transport_payload,
)
from .simplex import SimplexForm, dirichlet_integral, t_vars

TSKey = tuple[int, frozenset]  # (level, dt-subset)


class TSError(AlgebraError):
    pass


class TSCarrier(Carrier):
    """The Thom-Sullivan total complex as a single quantum-type DG Lie
    algebra; payloads are {(level, dt-subset) -> Cech payload}."""

    def __init__(self, nerve: CoverNerve, kind: str):
        self.nerve = nerve
        self.kind = kind
        self.levels = nerve.max_level()
        self._cech: dict[int, CechCarrier] = {
            l: CechCarrier(nerve, kind, l, tdim=l) for l in range(self.levels + 1)
        }

    def __eq__(self, other):
        return (
            isinstance(other, TSCarrier)
            and self.nerve == other.nerve
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash(("ts", self.nerve, self.kind))

    # -- payload basics ------------------------------------------------------

    def zero(self):
        return {}

    def is_zero(self, x) -> bool:
        return not x

    def _clean(self, x):
        return {
            k: v
            for k, v in x.items()
            if not self._cech[k[0]].is_zero(v)
        }

    def eq(self, x, y) -> bool:
        for k in set(x) | set(y):
            car = self._cech[k[0]]
            if not car.eq(x.get(k, {}), y.get(k, {})):
                return False
        return True

    def add(self, x, y):
        out = dict(x)
        for k, v in y.items():
            out[k] = self._cech[k[0]].add(out[k], v) if k in out else v
        return self._clean(out)

    def scale(self, c: Fraction, x):
        return self._clean({k: self._cech[k[0]].scale(c, v) for k, v in x.items()})

    # -- differential and bracket ---------------------------------------------

    def _t_derivative(self, level: int, payload, j: int):
        """d/dt_j on the coefficients of a level Cech payload."""
        car = self._cech[level]
        out = {}
        for face, data in payload.items():
            nx = len(self.nerve.algebra(face).variables)
            tindex = nx + (j - 1)
            if self.kind == "polyvec":
                new = {
                    ks: c.derivative(tindex) for ks, c in data.items()
                }
                new = {ks: c for ks, c in new.items() if not c.is_zero()}
            else:
                new = {
                    slots: c.derivative(tindex) for slots, c in data.items()
                }
                new = {s: c for s, c in new.items() if not c.is_zero()}
            if new:
                out[face] = new
        return out

    def d(self, x, degree: int):
        out: dict = {}

        def acc(key, val):
            if key in out:
                out[key] = self._cech[key[0]].add(out[key], val)
            else:
                out[key] = val

        for (l, S), comp in x.items():
            car = self._cech[l]
            # de Rham part: dt_j ^ (d/dt_j)
            for j in range(1, l + 1):
                if j in S:
                    continue
                der = self._t_derivative(l, comp, j)
                if not der:
                    continue
                sign = (-1) ** sum(1 for s in S if s < j)
                acc((l, S | {j}), car.scale(QQ(sign), der))
            # internal part with the Koszul sign of passing d across dt_S
            internal = car.d(comp, degree - len(S))
            if internal:
                acc((l, S), car.scale(QQ((-1) ** len(S)), internal))
        return self._clean(out)

    def bracket(self, x, y, dx: int, dy: int):
        out: dict = {}
        for (l1, S1), c1 in x.items():
            i1 = dx - len(S1)
            for (l2, S2), c2 in y.items():
                if l1 != l2 or (S1 & S2):
                    continue
                i2 = dy - len(S2)
                car = self._cech[l1]
                br = car.bracket(c1, c2, i1, i2)
                if car.is_zero(br):
                    continue
                a = sorted(S1)
                b = sorted(S2)
                inv = sum(1 for u in a for v in b if u > v)
                sign = ((-1) ** inv) * ((-1) ** (i1 * len(S2)))
                key = (l1, S1 | S2)
                val = car.scale(QQ(sign), br)
                out[key] = car.add(out[key], val) if key in out else val
        return self._clean(out)

    def render(self, x, degree: int) -> str:
        if not x:
            return "0"
        chunks = []
        for (l, S) in sorted(x, key=lambda k: (k[0], sorted(k[1]))):
            dt = "^".join(f"dt{i}" for i in sorted(S)) or "1"
            body = self._cech[l].render(x[(l, S)], degree - len(S))
            chunks.append(f"(level {l}, {dt}) {body}")
        return " | ".join(chunks)


@dataclass
class TSHandle:
    """ts_normalize output: the TS DG Lie algebra of a nerve with validity
    checking; elements are ordinary DGLAElements over the TSCarrier."""

    nerve: CoverNerve
    kind: str
    algebra: ParamAlgebra

    def __post_init__(self):
        self.carrier = TSCarrier(self.nerve, self.kind)

    def zero(self, degree: int) -> DGLAElement:
        return DGLAElement.zero(self.carrier, self.algebra, degree)

    def validate(self, element: DGLAElement) -> None:
        validate_compatibility(element)


def ts_normalize(nerve: CoverNerve, kind: str, algebra: ParamAlgebra) -> TSHandle:
    return TSHandle(nerve, kind, algebra)


# ---------------------------------------------------------------------------
# compatibility validation
# ---------------------------------------------------------------------------


def _form_pullback_matrix(alpha: Sequence[int], p: int, q: int):
    """For alpha: [p] -> [q]: images of target coordinates t_j (j=1..q) as
    source t-polynomials, and of dt_j as {source index or 0 -> coefficient}
    (index 0 stands for the -sum(dt_i) contribution of t_0)."""
    tvp = t_vars(p)
    t_imgs = []
    dt_imgs = []
    for j in range(1, q + 1):
        f = Poly.zero(tvp)
        dt: dict[int, Fraction] = {}
        for i in range(0, p + 1):
            if alpha[i] != j:
                continue
            if i == 0:
                g = Poly.const(tvp, 1)
                for k in range(1, p + 1):
                    g = g - Poly.var(tvp, f"t{k}")
                    dt[k] = dt.get(k, QQ(0)) - 1
                f = f + g
            else:
                f = f + Poly.var(tvp, f"t{i}")
                dt[i] = dt.get(i, QQ(0)) + 1
        t_imgs.append(f)
        dt_imgs.append({k: v for k, v in dt.items() if v != 0})
    return t_imgs, dt_imgs


def _substitute_t(payload, kind: str, chart_src: ChartAlgebra, nx: int, p: int, q: int, t_imgs):
    """Substitute target t-variables by source t-polynomials in all
    coefficients; the x-variables are fixed.  chart_src is the source-level
    extended chart (x-vars + t_1..t_p)."""
    images = [chart_src.var(v) for v in chart_src.variables[:nx]]
    for j in range(q):
        # embed the pure-t image polynomial into the extended chart
        terms = {}
        for e, c in t_imgs[j].terms.items():
            terms[(0,) * nx + e] = c
        images.append(LocalizedPoly(chart_src, Poly(chart_src.variables, terms)))
    out = {}
    for key, c in payload.items():
        img = c.substitute(chart_src, images)
        if not img.is_zero():
            out[key] = img
    return out


def _pullback_component(
    nerve: CoverNerve, kind: str, face, payload, S: frozenset, alpha, p: int, q: int
):
    """(Omega(alpha) (x) 1): pull the (level-q form) component at a face back
    to forms on Delta^p; returns {S_src -> payload-over-(x + t^p)-chart}."""
    nx = len(nerve.algebra(face).variables)
    chart_src = extend_chart(nerve.algebra(face), p)
    t_imgs, dt_imgs = _form_pullback_matrix(alpha, p, q)
    base = _substitute_t(payload, kind, chart_src, nx, p, q, t_imgs)
    if not base:
        return {}
    # expand the wedge of pulled-back dt_j over subsets of source indices
    out: dict[frozenset, dict] = {}
    pieces = [dt_imgs[j - 1] for j in sorted(S)]

    def expand(idx, used: tuple, coeff: Fraction):
        if coeff == 0:
            return
        if idx == len(pieces):
            # Koszul sort of used into increasing order
            sign = 1
            arr = list(used)
            for a in range(len(arr)):
                for b in range(a + 1, len(arr)):
                    if arr[a] > arr[b]:
                        sign = -sign
            key = frozenset(used)
            scaled = _scale_payload(kind, base, coeff * sign)
            if key in out:
                out[key] = _add_payload(kind, out[key], scaled)
            else:
                out[key] = scaled
            return
        for i, c in pieces[idx].items():
            if i in used:
                continue
            expand(idx + 1, used + (i,), coeff * c)

    expand(0, (), QQ(1))
    return {k: v for k, v in out.items() if v}


def _scale_payload(kind: str, payload, c: Fraction):
    if c == 0:
        return {}
    return {k: v.scale(c) for k, v in payload.items()}


def _add_payload(kind: str, a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return {k: v for k, v in out.items() if not v.is_zero()}


def validate_compatibility(element: DGLAElement) -> None:
    """Check (1 (x) g(alpha))(u_p) = (Omega(alpha) (x) 1)(u_q) for the coface
    generators delta_i: [q-1] -> [q] between stored levels, that is
    delta_i^* u_q(tau) = transport(u_{q-1}(tau o delta_i)) at every present
    q-face tau, q <= top level.  Raises TSError naming the offending alpha.

    This is the whole end condition.  g and Omega are functors, so the
    condition for a composite follows from those for its factors, and every
    order-preserving map is cofaces after codegeneracies (May, Simplicial
    Objects in Algebraic Topology, 1967, section 1).  A weakly increasing
    tuple w with support tau (a present k-face) and collapse sigma: [q] -> [k]
    carries the forced value u(w) = sigma^* u_k(tau); the codegeneracy
    conditions hold by this definition, since the collapse of w o s is
    sigma o s.  What remains are the coface conditions at degenerate w, at
    every level up to and above the top, for v = w o delta_i:
    - sigma o delta_i is onto [k]: v has support tau and collapse
      sigma o delta_i, so u(v) = delta_i^* sigma^* u_k(tau) = delta_i^* u(w),
      both sides the same pullback, with no transport;
    - otherwise j = sigma(i) has no other preimage, and the simplicial
      identity sigma o delta_i = delta_j o sigma_v holds with sigma_v the
      collapse of v onto its support tau o delta_j.  The condition reads
      transport(sigma_v^* u_{k-1}(tau o delta_j)) = sigma_v^* delta_j^* u_k(tau).
      Transport acts on the chart variables and their derivations, and
      pullback on the t-variables and dt's, so the two commute; the
      condition is sigma_v^* of the coface condition at (tau, j), which
      k <= top level puts among the ones checked here.
    Components on degenerate simplices therefore need no check of their
    own."""
    car = element.carrier
    if not isinstance(car, TSCarrier):
        raise TSError("compatibility validation expects a TS element")
    for q in range(1, car.levels + 1):
        p = q - 1
        for i in range(q + 1):
            alpha = tuple(j if j < i else j + 1 for j in range(p + 1))
            _check_alpha(element, alpha, p, q)


def _check_alpha(element: DGLAElement, alpha, p: int, q: int) -> None:
    car: TSCarrier = element.carrier
    nerve = car.nerve
    kind = car.kind
    for bi, payload in element.parts.items():
        # group the level-p and level-q pieces
        lhs: dict[frozenset, dict] = {}
        for (l, S), comp in payload.items():
            if l != p:
                continue
            # Cech push along alpha, t-coefficients inert (tdim = p)
            pushed = {}
            for tau in nerve.level_faces(q):
                sigma = tuple(tau[a] for a in alpha)
                support = tuple(sorted(set(sigma)))
                if support not in nerve.faces:
                    continue
                val = comp.get(support)
                if val is None:
                    continue
                v = transport_payload(nerve, kind, support, tau, val, tdim=p)
                if v:
                    pushed[tau] = v
            if pushed:
                lhs[S] = _merge_face_dict(kind, lhs.get(S), pushed)
        rhs: dict[frozenset, dict] = {}
        for (l, S), comp in payload.items():
            if l != q:
                continue
            for face, data in comp.items():
                pulled = _pullback_component(nerve, kind, face, data, S, alpha, p, q)
                for S_src, pdata in pulled.items():
                    tgt = rhs.setdefault(S_src, {})
                    if face in tgt:
                        tgt[face] = _add_payload(kind, tgt[face], pdata)
                    else:
                        tgt[face] = pdata
        keys = set(lhs) | set(rhs)
        for S in keys:
            a = lhs.get(S, {})
            b = rhs.get(S, {})
            for face in set(a) | set(b):
                pa = a.get(face, {})
                pb = b.get(face, {})
                if not _payload_eq(kind, pa, pb):
                    raise TSError(
                        f"compatibility fails for alpha={alpha} at face "
                        f"{nerve.label(face)}, dt-set {sorted(S)}"
                    )


def _merge_face_dict(kind, a, b):
    if a is None:
        return b
    out = dict(a)
    for f, v in b.items():
        out[f] = _add_payload(kind, out[f], v) if f in out else v
    return out


def _payload_eq(kind, a, b) -> bool:
    for k in set(a) | set(b):
        va, vb = a.get(k), b.get(k)
        if va is None or vb is None:
            if va is None and vb is not None and vb.is_zero():
                continue
            if vb is None and va is not None and va.is_zero():
                continue
            return False
        if va != vb:
            return False
    return True


# ---------------------------------------------------------------------------
# Whitney map and integration
# ---------------------------------------------------------------------------


def _payload_times_tpoly(kind: str, payload, tpoly: Poly, chart_ext: ChartAlgebra, nx: int):
    """Multiply every coefficient by a polynomial in the t-variables."""
    terms = {}
    for e, c in tpoly.terms.items():
        terms[(0,) * nx + e] = c
    factor = LocalizedPoly(chart_ext, Poly(chart_ext.variables, terms))
    out = {}
    for k, v in payload.items():
        nv = v * factor
        if not nv.is_zero():
            out[k] = nv
    return out


def _lift_payload(kind: str, payload, old_chart: ChartAlgebra, new_chart: ChartAlgebra):
    from .cechnerve import _lift_localized

    return {k: _lift_localized(v, old_chart, new_chart) for k, v in payload.items()}


def whitney(handle: TSHandle, q: int, cochain: DGLAElement) -> DGLAElement:
    """Whitney embedding of an ordered Cech q-cochain (an element over
    CechCarrier(level=q, tdim=0)) into the Thom-Sullivan complex.

    Internal degree i becomes total degree q + i; the result is always
    compatible."""
    car = handle.carrier
    nerve = handle.nerve
    kind = handle.kind
    src_car = cochain.carrier
    if not isinstance(src_car, CechCarrier) or src_car.level != q or src_car.tdim != 0:
        raise TSError("whitney input must be a plain level-q Cech element")
    L = car.levels
    out_parts: dict = {}
    for bi, comp in cochain.parts.items():
        ts_payload: dict = {}
        for l in range(q, L + 1):
            chart_cache: dict = {}
            for tau in nerve.level_faces(l):
                alg = nerve.algebra(tau)
                chart_ext = extend_chart(alg, l)
                nx = len(alg.variables)
                for subset in itertools.combinations(range(l + 1), q + 1):
                    sub_face = tuple(tau[j] for j in subset)
                    if sub_face not in nerve.faces:
                        continue
                    val = comp.get(sub_face)
                    if val is None:
                        continue
                    moved = transport_payload(nerve, kind, sub_face, tau, val, tdim=0)
                    if not moved:
                        continue
                    moved = _lift_payload(kind, moved, alg, chart_ext)
                    # Whitney form of the subset on Delta^l
                    wf = _whitney_form(l, subset)
                    for S, tpoly in wf.parts.items():
                        piece = _payload_times_tpoly(kind, moved, tpoly, chart_ext, nx)
                        if not piece:
                            continue
                        key = (l, frozenset(S))
                        tgt = ts_payload.setdefault(key, {})
                        if tau in tgt:
                            tgt[tau] = _add_payload(kind, tgt[tau], piece)
                        else:
                            tgt[tau] = piece
        ts_payload = {
            k: {f: v for f, v in d.items() if v} for k, d in ts_payload.items()
        }
        ts_payload = {k: d for k, d in ts_payload.items() if d}
        if ts_payload:
            out_parts[bi] = ts_payload
    return DGLAElement(car, handle.algebra, cochain.degree + q, out_parts)


def _whitney_form(l: int, subset: Sequence[int]) -> SimplexForm:
    """q! sum_r (-1)^r t_{j_r} dt_{j_0} ^ ... ^ (omit r) ... ^ dt_{j_q}."""
    q = len(subset) - 1
    out = SimplexForm.zero(l)
    for r in range(q + 1):
        piece = SimplexForm.coordinate(l, subset[r])
        for s in range(q + 1):
            if s == r:
                continue
            piece = piece.wedge(SimplexForm.dt(l, subset[s]))
        out = out + piece.scale(QQ((-1) ** r))
    return out.scale(math.factorial(q))


def integrate_component(handle: TSHandle, element: DGLAElement, level: int) -> DGLAElement:
    """int_{Delta^level} of the (level, top dt-set) component: a plain Cech
    element at that level (the square-zero integral formula)."""
    car = handle.carrier
    nerve = handle.nerve
    S_top = frozenset(range(1, level + 1))
    out_car = CechCarrier(nerve, handle.kind, level, tdim=0)
    parts = {}
    for bi, payload in element.parts.items():
        comp = payload.get((level, S_top))
        if not comp:
            continue
        out_faces = {}
        for face, data in comp.items():
            alg = nerve.algebra(face)
            nx = len(alg.variables)
            newdata: dict = {}
            for key, c in data.items():
                integ = _integrate_t(c, alg, nx, level)
                if integ.is_zero():
                    continue
                newdata[key] = newdata[key] + integ if key in newdata else integ
            newdata = {k: v for k, v in newdata.items() if not v.is_zero()}
            if newdata:
                out_faces[face] = newdata
        if out_faces:
            parts[bi] = out_faces
    degree = element.degree - level
    return DGLAElement(out_car, handle.algebra, degree, parts)


def _integrate_t(c: LocalizedPoly, alg: ChartAlgebra, nx: int, level: int) -> LocalizedPoly:
    """Integrate the t-part of a coefficient over Delta^level."""
    terms: dict = {}
    for e, coeff in c.numer.terms.items():
        xpart = e[:nx]
        tpart = e[nx:]
        w = coeff * dirichlet_integral(tpart, level)
        if w == 0:
            continue
        terms[xpart] = terms.get(xpart, QQ(0)) + w
    num = Poly(alg.variables, terms)
    return LocalizedPoly(alg, num, c.powers)


def level_zero_element(handle: TSHandle, element: DGLAElement) -> DGLAElement:
    """The (level 0, empty dt-set) component as a plain Cech element."""
    car = CechCarrier(handle.nerve, handle.kind, 0, tdim=0)
    parts = {}
    for bi, payload in element.parts.items():
        comp = payload.get((0, frozenset()))
        if comp:
            parts[bi] = comp
    return DGLAElement(car, handle.algebra, element.degree, parts)
