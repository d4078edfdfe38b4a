"""Multiplicative and additive descent data over a cover nerve, their cocycle
conditions, twisted gauge transformations, the exp translation ADD -> MDD,
the int translation MC(Thom-Sullivan) -> ADD, and order-by-order equivalence
and obstruction solving through the central layers.

Group elements are always manipulated through logarithms with BCH; the inner
gauge of exp_beta(alpha) is the operator exponential of d_beta(alpha), which
for the associative flavor is exactly star-conjugation.

Only strictly increasing index tuples are stored; the normalization closure
(g_{k,k} = 1, g_{k1,k0} = g_{k0,k1}^{-1}, a-permutation relations) is
definitional.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional

from .exactalg import AlgebraError, ExactSystem, QQ
from .params import ParamAlgebra
from .dgla import (
    DGLAElement,
    MCElement,
    ad_exp,
    bch,
    bch_dleft,
    bch_dright,
    bch_many,
    gauge_act,
    gauge_operator,
    mc_residue,
    require_mc,
    twisted_d,
)
from .cechnerve import (
    CechComplex,
    CoverNerve,
    Face,
    LayerSpec,
    NerveError,
    carrier_of_flavor,
    carrier_of_kind,
    transport_payload,
)
from .polydiff import monomial_basis
from .thomsullivan import TSHandle, integrate_component, validate_compatibility


def face_carrier(nerve: CoverNerve, flavor: str, face: Face):
    return carrier_of_flavor(flavor)(nerve.algebra(face))


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


@dataclass
class DescentDatum:
    """What a descent datum of either kind shares: the nerve, flavour and
    parameter algebra its per-face components live over, and the one way
    those components are read.  Each kind carries what differs: its JSON
    ``kind``, its JSON ``sections`` in level order, its ``phrase`` in
    messages, ``components()``, which reads it as (chart elements, zero
    where absent; edge logs; triangle logs), and ``from_components``, which
    builds it from those (the multiplicative kind requires MC locals)."""

    nerve: CoverNerve
    flavor: str
    algebra: ParamAlgebra

    def carrier(self, face: Face):
        return face_carrier(self.nerve, self.flavor, face)

    def move(self, f: Face, g: Face, elt: DGLAElement) -> DGLAElement:
        """Transport a per-face element along the restriction f <= g."""
        if f == g:
            return elt
        car = self.carrier(g)
        return elt.map_payload(
            lambda pay: transport_payload(self.nerve, car.kind, f, g, pay), carrier=car
        )

    def at(self, data: Mapping, f: Face, degree: int, g: Optional[Face] = None) -> DGLAElement:
        """The component of ``data`` at f, the zero of ``degree`` when
        absent, moved to g when g is given."""
        v = data.get(f)
        if v is None:
            return DGLAElement.zero(self.carrier(f if g is None else g), self.algebra, degree)
        return v if g is None else self.move(f, g, v)

    def copy(self):
        """The same datum over fresh component dicts."""
        return replace(self, **{k: dict(v) for k, v in vars(self).items() if isinstance(v, dict)})

    def chart_elements(self, loc: Mapping) -> dict:
        """{chart: the degree-1 element of ``loc`` there, zero when absent}."""
        return {k: self.at(loc, k, 1) for k in self.nerve.level_faces(0)}


@dataclass
class MultDescentDatum(DescentDatum):
    kind = "mdd"
    sections = ("locals", "edges", "triples")
    phrase = "a multiplicative"

    locals: dict  # chart face -> MCElement (per-face carrier)
    edge_gauges: dict  # edge face -> degree-0 log
    triple_units: dict  # triangle face -> degree-(-1) log

    def components(self) -> tuple:
        loc = self.chart_elements({k: v.element for k, v in self.locals.items()})
        return loc, self.edge_gauges, self.triple_units

    @classmethod
    def from_components(cls, nerve, flavor, algebra, loc, edges, triples):
        loc = DescentDatum(nerve, flavor, algebra).chart_elements(loc)
        return cls(nerve, flavor, algebra, {k: require_mc(v) for k, v in loc.items()}, edges, triples)


@dataclass
class AddDescentDatum(DescentDatum):
    kind = "add"
    sections = ("delta0", "delta1", "delta2")
    phrase = "an additive"

    delta0: dict  # chart face -> degree-1 element
    delta1: dict  # edge face -> degree-0 element
    delta2: dict  # triangle face -> degree-(-1) element

    def components(self) -> tuple:
        return self.chart_elements(self.delta0), self.delta1, self.delta2

    @classmethod
    def from_components(cls, *components):
        return cls(*components)


def datum_of_kind(kind: str) -> type:
    for cls in (MultDescentDatum, AddDescentDatum):
        if cls.kind == kind:
            return cls
    raise AlgebraError(f"unknown descent datum kind {kind!r}")


@dataclass
class Violation:
    condition: str  # 'i', 'ii', 'iii', 'iv', 'edge-morphism'
    face: Face
    order: int
    residue_render: str


@dataclass
class CheckReport:
    ok: bool
    violations: list
    defects: dict = field(default_factory=dict)  # (condition, face) -> defect

    def first(self) -> Optional[Violation]:
        if self.ok:
            return None
        return min(self.violations, key=lambda v: (v.order, v.condition, v.face))

    def minimal_conditions(self) -> set:
        if self.ok:
            return set()
        m = min(v.order for v in self.violations)
        return {v.condition for v in self.violations if v.order == m}

    def render(self) -> str:
        if self.ok:
            return "pass"
        lines = [
            f"({v.condition}) at {v.face}, adic order {v.order}: {v.residue_render}"
            for v in sorted(self.violations, key=lambda v: (v.order, v.condition, str(v.face)))
        ]
        return "violations:\n  " + "\n  ".join(lines)


@dataclass
class TwistedTransformation:
    """(h, b) on logarithms: eta per chart (degree 0), eps per edge
    (degree -1, in the twisted algebra at the smaller chart)."""

    eta: dict
    eps: dict


def identity_transformation(nerve: CoverNerve, flavor: str, algebra: ParamAlgebra) -> TwistedTransformation:
    eta = {}
    eps = {}
    for f in nerve.level_faces(0):
        eta[f] = DGLAElement.zero(face_carrier(nerve, flavor, f), algebra, 0)
    for e in nerve.level_faces(1):
        eps[e] = DGLAElement.zero(face_carrier(nerve, flavor, e), algebra, -1)
    return TwistedTransformation(eta, eps)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _record(violations, condition, face, defect: DGLAElement):
    if not defect.is_zero():
        order = int(defect.adic_order())
        violations.append(
            Violation(condition, face, order, defect.graded_part(order).render())
        )


_CONDITIONS = ("i", "ii", "iii", "iv")  # the descent conditions, by the level of their faces


def _condition_defects(datum, conditions=_CONDITIONS) -> dict:
    """{(condition, face): defect} of the descent conditions on the locals b,
    edge logs g and triple logs a of a datum of either kind; a condition
    holds at a face exactly when its defect there is zero.

      (i)   d(b_k) + 1/2 [b_k, b_k]                                 charts
      (ii)  exp(g_01) . b_0 - b_1                                    edges
      (iii) BCH(-g_02, g_12, g_01) - d_{b_0}(a_012)                  triangles
      (iv)  BCH_{b_0}(-a_013, a_023, a_012) - exp(ad(-g_01))(a_123)  tetrahedra
    """
    nerve, at = datum.nerve, datum.at
    loc, edges, triples = datum.components()
    out = {}
    if "i" in conditions:
        for k in nerve.level_faces(0):
            out[("i", k)] = mc_residue(loc[k])
    if "ii" in conditions:
        for e in nerve.level_faces(1):
            b0, b1 = at(loc, (e[0],), 1, e), at(loc, (e[1],), 1, e)
            out[("ii", e)] = gauge_act(at(edges, e, 0), b0) - b1
    if "iii" in conditions:
        for t in nerve.level_faces(2):
            g01, g02, g12 = (at(edges, (t[i], t[j]), 0, t) for i, j in ((0, 1), (0, 2), (1, 2)))
            b0 = at(loc, (t[0],), 1, t)
            out[("iii", t)] = bch_many([-g02, g12, g01]) - twisted_d(b0, at(triples, t, -1))
    if "iv" in conditions:
        for w in nerve.level_faces(3):
            a013, a023, a012, a123 = (
                at(triples, (w[i], w[j], w[k]), -1, w)
                for i, j, k in ((0, 1, 3), (0, 2, 3), (0, 1, 2), (1, 2, 3))
            )
            b0 = at(loc, (w[0],), 1, w)
            g01 = at(edges, (w[0], w[1]), 0, w)
            out[("iv", w)] = bch_many([-a013, a023, a012], beta=b0) - ad_exp(-g01, a123)
    return out


def check_add(datum: AddDescentDatum) -> CheckReport:
    """Conditions (i)-(iv) of an additive descent datum, verified exactly on
    logarithms via BCH and the gauge action.  The report keeps every
    defect."""
    defects = _condition_defects(datum)
    violations: list = []
    for (condition, face), defect in defects.items():
        _record(violations, condition, face, defect)
    return CheckReport(not violations, violations, defects)


def check_mdd(datum: MultDescentDatum, cert_degree: Optional[int] = None) -> CheckReport:
    """Def-style conditions of a multiplicative descent datum.

    (edge-morphism): each edge gauge intertwines the neighbouring locals,
          the additive condition (ii).
    (ii): the 1-cocycle failure equals the inner gauge of the triple unit,
          compared as operators on a monomial basis of the triple overlap.
    (iii): the twisted 2-cocycle condition on logarithms, the additive
          condition (iv).
    """
    nerve, alg = datum.nerve, datum.algebra
    defects = _condition_defects(datum, ("ii", "iv"))
    violations: list = []
    for e in nerve.level_faces(1):
        _record(violations, "edge-morphism", e, defects[("ii", e)])
    for t in nerve.level_faces(2):
        k0 = (t[0],)
        g01, g02, g12 = (
            datum.at(datum.edge_gauges, e, 0, t) for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        )
        b0 = datum.move(k0, t, datum.locals[k0].element)
        ig_log = twisted_d(b0, datum.at(datum.triple_units, t, -1))
        # operator comparison on the monomial basis of the triple overlap
        car = datum.carrier(t)
        degree = car.cert_degree([g01, g02, g12, ig_log, datum.locals[k0].element], cert_degree)
        F01 = gauge_operator(g01)
        F12 = gauge_operator(g12)
        F20 = gauge_operator(-g02)
        IG = gauge_operator(ig_log)
        for m in monomial_basis(car, alg, degree):
            diff = F20(F12(F01(m))) - IG(m)
            if not diff.is_zero():
                _record(violations, "ii", t, diff)
                break
    for w in nerve.level_faces(3):
        _record(violations, "iii", w, defects[("iv", w)])
    return CheckReport(not violations, violations)


# ---------------------------------------------------------------------------
# exp: ADD -> MDD
# ---------------------------------------------------------------------------


def exp_add(datum: AddDescentDatum, cert_degree: Optional[int] = None) -> MultDescentDatum:
    """Exponentiate an additive descent datum: locals are the MC-induced
    deformations, the edge and triple logs are reused verbatim.  The output
    is validated by check_mdd (the multiplicative, operator-level route)."""
    rep = check_add(datum)
    if not rep.ok:
        raise AlgebraError("exp_add input fails check_add: " + rep.render())
    locals_ = {
        k: b.carrier.structure_from_mc(require_mc(b), cert_degree).beta
        for k, b in datum.components()[0].items()
    }
    out = MultDescentDatum(
        datum.nerve, datum.flavor, datum.algebra, locals_, dict(datum.delta1), dict(datum.delta2)
    )
    rep2 = check_mdd(out, cert_degree)
    if not rep2.ok:
        raise AlgebraError("exp_add output fails check_mdd: " + rep2.render())
    return out


# ---------------------------------------------------------------------------
# twisted gauge transformations
# ---------------------------------------------------------------------------


def _gauged(t: TwistedTransformation, datum):
    """The image of a datum of either kind under t, computed on logarithms."""
    nerve, at, move = datum.nerve, datum.at, datum.move
    locals_like, edges, triples = datum.components()
    new_locals = {k: gauge_act(t.eta[k], locals_like[k]) for k in nerve.level_faces(0)}
    new_edges = {}
    for e in nerve.level_faces(1):
        k0, k1 = (e[0],), (e[1],)
        eta0, eta1 = move(k0, e, t.eta[k0]), move(k1, e, t.eta[k1])
        igb = twisted_d(at(locals_like, k0, 1, e), t.eps[e])
        new_edges[e] = bch_many([eta1, at(edges, e, 0), igb, -eta0])
    new_triples = {}
    for tr in nerve.level_faces(2):
        k0 = (tr[0],)
        e01, e02, e12 = (tr[0], tr[1]), (tr[0], tr[2]), (tr[1], tr[2])
        b0 = at(locals_like, k0, 1, tr)
        g01 = at(edges, e01, 0, tr)
        eps01, eps02, eps12 = (move(e, tr, t.eps[e]) for e in (e01, e02, e12))
        inner = bch_many([eps01, ad_exp(-g01, eps12), at(triples, tr, -1), -eps02], beta=b0)
        new_triples[tr] = ad_exp(move(k0, tr, t.eta[k0]), inner)
    return datum.from_components(datum.nerve, datum.flavor, datum.algebra, new_locals, new_edges, new_triples)


def mdd_gauge(t: TwistedTransformation, datum: MultDescentDatum) -> MultDescentDatum:
    return _gauged(t, datum)


def add_gauge(t: TwistedTransformation, datum: AddDescentDatum) -> AddDescentDatum:
    return _gauged(t, datum)


def invert_transformation(
    t: TwistedTransformation, nerve, flavor, alg
) -> TwistedTransformation:
    """Inverse in the transformation groupoid: eta -> -eta and
    eps -> exp(ad eta0)-image of -eps (twisted at the transformed base)."""
    move = DescentDatum(nerve, flavor, alg).move
    eta_inv = {k: -v for k, v in t.eta.items()}
    eps_inv = {}
    for e in nerve.level_faces(1):
        k0 = (e[0],)
        eps_inv[e] = ad_exp(move(k0, e, t.eta[k0]), -t.eps[e])
    return TwistedTransformation(eta_inv, eps_inv)


def compose_transformations(
    t2: TwistedTransformation, t1: TwistedTransformation, datum: "MultDescentDatum | AddDescentDatum"
) -> TwistedTransformation:
    """Composite `apply t1 then t2` on logarithms."""
    locals_like = datum.components()[0]
    eta = {}
    for k in datum.nerve.level_faces(0):
        eta[k] = bch(t2.eta[k], t1.eta[k])
    eps = {}
    for e in datum.nerve.level_faces(1):
        k0 = (e[0],)
        b0 = datum.at(locals_like, k0, 1, e)
        eta0 = datum.move(k0, e, t1.eta[k0])
        eps[e] = bch(t1.eps[e], ad_exp(-eta0, t2.eps[e]), beta=b0)
    return TwistedTransformation(eta, eps)


# ---------------------------------------------------------------------------
# layer linear algebra for equiv_solve / obstruction / int_mc
# ---------------------------------------------------------------------------


class LayerWindow:
    """Finite-dimensional unknown spaces per face: degree -1 atoms are layer
    monomials; degree 0 atoms are vector fields (poisson) or normalized
    1-slot operators (associative) with bounded slots; degree 1 atoms are
    bivectors / normalized 2-slot operators.

    A chart may invert variables, but a restriction that sends a variable to
    a fraction makes the restricted layers infinite-dimensional, so such a
    nerve is refused."""

    def __init__(self, nerve: CoverNerve, flavor: str, coeff_degree: int, slot_bound: int):
        self.nerve = nerve
        self.flavor = flavor
        self.coeff_degree = coeff_degree
        self.slot_bound = slot_bound
        for f in nerve.faces:
            for g, _ in nerve.cofaces(f):
                if not all(img.is_polynomial() for img in nerve.restriction(f, g).var_images):
                    raise NerveError(
                        "coefficient layer not finite-dimensional: the restriction "
                        f"{f} -> {g} has a denominator"
                    )

    def atoms(self, face: Face, degree: int) -> list:
        car = face_carrier(self.nerve, self.flavor, face)
        monos = car.chart.monomials_up_to(self.coeff_degree)
        if degree == -1:
            return [{(): m} for m in monos]
        return [{key: m} for key in car.window_keys(degree, self.slot_bound) for m in monos]

    def coords(self, face: Face, payload) -> dict:
        """{(payload key, exponent) -> Fraction}; errors leaving the window."""
        out: dict = {}
        for key, c in payload.items():
            if any(c.powers):
                raise NerveError("coefficient layer not finite-dimensional")
            for e, q in c.numer.terms.items():
                out[(key, e)] = out.get((key, e), QQ(0)) + q
        return {k: v for k, v in out.items() if v != 0}

    def rows(self, tag, face: Face, parts: Mapping) -> list:
        """(row key, value) per nonzero coordinate of the per-layer payloads
        ``parts`` at ``face``; a row key is (tag, face, layer index, coord)."""
        return [
            ((tag, face, li, ck), v)
            for li, payload in parts.items()
            for ck, v in self.coords(face, payload).items()
        ]


@dataclass
class ObstructionReport:
    order: int
    cocycle: dict  # triangle face -> degree-(-1) layer payload (render-ready)
    class_is_zero: Optional[bool]
    detail: str
    # chart face -> order layer of the last iterate's local defect
    local_residues: dict = field(default_factory=dict)

    def render(self) -> str:
        clas = (
            "zero"
            if self.class_is_zero
            else ("nonzero" if self.class_is_zero is False else "undecided")
        )
        faces = ", ".join(
            f"{f}: {r}" for f, r in sorted((str(k), v) for k, v in self.cocycle.items())
        )
        return (
            f"obstruction at adic order {self.order} (class {clas}); "
            f"layer 2-cocycle: {{{faces}}}; {self.detail}"
        )


def _window(datum, defects: Iterable[DGLAElement], default: int) -> LayerWindow:
    """The LayerWindow over the datum's nerve whose coefficient degree and
    slot bound are the maximal total coefficient degree and total slot
    weight over defect terms, and at least ``default`` (d splits slots, so
    the unknown operators may need the full total order of a defect term)."""
    deg = slots = default
    for d in defects:
        for payload in d.parts.values():
            for key, c in payload.items():
                deg = max(deg, c.numer.total_degree())
                if key and isinstance(key[0], tuple):
                    slots = max(slots, sum(sum(a) for a in key))
    return LayerWindow(datum.nerve, datum.flavor, deg, slots)


# ---------------------------------------------------------------------------
# equiv_solve and obstruction
# ---------------------------------------------------------------------------


def _full_defects(current, target):
    """Defects against ``target``; with none, free locals and zero edges and triangles."""
    nerve, at = current.nerve, current.at
    cur_loc, cur_edges, cur_tri = current.components()
    if target is None:
        d0 = {k: DGLAElement.zero(current.carrier(k), current.algebra, 1) for k in nerve.level_faces(0)}
        tgt_edges = tgt_tri = {}
    else:
        tgt_loc, tgt_edges, tgt_tri = target.components()
        d0 = {k: cur_loc[k] - tgt_loc[k] for k in nerve.level_faces(0)}
    d1 = {e: at(cur_edges, e, 0) - at(tgt_edges, e, 0) for e in nerve.level_faces(1)}
    d2 = {tr: at(cur_tri, tr, -1) - at(tgt_tri, tr, -1) for tr in nerve.level_faces(2)}
    return d0, d1, d2


def _step_effects(datum, components, unknown_kind, face, u, match_locals):
    """Exact derivative of the transformed components (loc, edges, tri) of
    ``datum`` in the direction of a single unknown element u (an eta at a
    chart or an eps at an edge).  At each coface of its face, u enters the
    product that _gauged writes there on the left when the coface sign is +,
    and inverted on the right when it is -."""
    nerve, at, move = datum.nerve, datum.at, datum.move
    cur_loc, cur_edges, cur_tri = components
    effects = []
    if unknown_kind == "eta":
        if match_locals:
            effects.append(("loc", face, u.bracket(cur_loc[face]) - u.d()))
        for e, sign in nerve.cofaces(face):
            effects.append(("edge", e, _bch_linear(sign, move(face, e, u), at(cur_edges, e, 0))))
        for tr in nerve.level_faces(2):
            if tr[0] == face[0]:
                effects.append(("tri", tr, move(face, tr, u).bracket(at(cur_tri, tr, -1))))
    else:
        beta0 = at(cur_loc, face[:1], 1, face)
        effects.append(("edge", face, bch_dright(twisted_d(beta0, u), at(cur_edges, face, 0))))
        for tr, sign in nerve.cofaces(face):
            ut = move(face, tr, u)
            if face == tr[1:]:  # eps_12 enters twisted by the edge (0,1)
                ut = ad_exp(-at(cur_edges, tr[:2], 0, tr), ut)
            b0 = at(cur_loc, tr[:1], 1, tr)
            effects.append(("tri", tr, _bch_linear(sign, ut, at(cur_tri, tr, -1), b0)))
    return [(tag, f, elt) for tag, f, elt in effects if not elt.is_zero()]


def _bch_linear(sign, v, y, beta=None):
    """The linear part in v of BCH(v, y) for sign +, of BCH(y, -v) for -."""
    return bch_dleft(v, y, beta) if sign > 0 else -bch_dright(v, y, beta)


class _Unknowns:
    """The unknowns of a layer solve: each (name, level, degree) names one
    unknown per face of that level, spanned by the window's atoms of that
    degree in each layer of ``layer_idx``.  A column is (name, face, layer
    index, atom index), declared name by name, face by face, layer by layer."""

    def __init__(self, datum, window: LayerWindow, layer_idx: list, names):
        self.algebra = datum.algebra
        self.spaces = {  # (name, face) -> (carrier, degree, atoms)
            (name, face): (datum.carrier(face), degree, window.atoms(face, degree))
            for name, level, degree in names
            for face in datum.nerve.level_faces(level)
        }
        self.columns = [
            (name, face, li, ai)
            for (name, face), (_, _, atoms) in self.spaces.items()
            for li in layer_idx
            for ai in range(len(atoms))
        ]

    def element(self, col, value=None) -> DGLAElement:
        """The atom of a column as an element, scaled by ``value`` when given."""
        name, face, li, ai = col
        car, degree, atoms = self.spaces[(name, face)]
        payload = atoms[ai]
        if value is not None:
            payload = {k: c.scale(value) for k, c in payload.items()}
        return DGLAElement(car, self.algebra, degree, {li: payload})

    def add_solution(self, particular: Mapping, into):
        """Add a particular solution to the per-face dicts ``into.<name>``;
        the terms of each unknown are summed in the solution's order."""
        solved: dict = {}
        for col, value in particular.items():
            elt = self.element(col, value)
            solved[col[:2]] = solved[col[:2]] + elt if col[:2] in solved else elt
        for (name, face), v in solved.items():
            comps = getattr(into, name)
            comps[face] = comps[face] + v if face in comps else v
        return into


def _assemble(unknowns: _Unknowns, window: LayerWindow, defects: Mapping, effects) -> ExactSystem:
    """The linear system  sum over columns of (effects) + defects = 0  of a
    layer solve.  ``defects`` maps (tag, face) to an element whose
    coordinates, negated, are the right-hand side of the rows (tag, face,
    layer, coordinate); ``effects(name, face, u)`` lists the (tag, face,
    element) that the atom u of a column of that unknown contributes."""
    system = ExactSystem(unknowns.columns)
    for (tag, face), v in defects.items():
        for row, q in window.rows(tag, face, v.parts):
            system.add_rhs(row, -q)
    for col in unknowns.columns:
        for tag, f, elt in effects(col[0], col[1], unknowns.element(col)):
            for row, q in window.rows(tag, f, elt.parts):
                system.add(row, col, q)
    return system


# Newton passes in a row that do not raise the lowest defect order; the
# order is bounded by the parameter algebra, so this also caps the passes
_STALL_LIMIT = 6


def equiv_solve(datum, target):
    """Find a twisted gauge transformation carrying ``datum`` to ``target``
    (literal equality of components), or return the first-order
    ObstructionReport.  Newton iteration on the pronilpotent group: each pass
    solves the exact linearization over all central layers jointly and
    composes the step; termination is by the filtration.  The unknowns'
    window is sized by the lowest defect layer; higher layers are reached by
    later passes.

    With no target (None) the locals are left free and only the edges and
    triples are matched, to zero (the trivialization problem)."""
    nerve, flavor, alg = datum.nerve, datum.flavor, datum.algebra
    if target is not None and (
        target.nerve != nerve or target.flavor != flavor or target.algebra != alg
    ):
        raise AlgebraError("data over different nerves/flavors/parameter algebras")
    match_locals = target is not None
    t = identity_transformation(nerve, flavor, alg)
    layer_idx = [i for i in range(len(alg.basis)) if alg.basis_order(i) >= 1]
    stall = 0
    best_order = 0
    while True:
        current = _gauged(t, datum)
        d0, d1, d2 = _full_defects(current, target)
        defects = [v for d in (d0, d1, d2) for v in d.values() if not v.is_zero()]
        if not defects:
            return t
        p0 = int(min(v.adic_order() for v in defects))
        if p0 > best_order:
            best_order = p0
            stall = 0
        else:
            stall += 1
            if stall > _STALL_LIMIT:
                return _obstruction_report(current, d0, d2, p0)
        window = _window(current, [v.graded_part(p0) for v in defects], 1)
        unknowns = _Unknowns(current, window, layer_idx, (("eta", 0, 0), ("eps", 1, -1)))
        components = current.components()
        system = _assemble(
            unknowns, window,
            {(tag, face): v for tag, d in (("loc", d0), ("edge", d1), ("tri", d2)) for face, v in d.items()},
            lambda name, face, u: _step_effects(current, components, name, face, u, match_locals),
        )
        # the largest consistent prefix of adic orders; the quadratic tail of
        # the step pollutes higher orders, which the next pass cleans up
        solution, failed = system.solve_prefix(lambda row: alg.basis_order(row[2]))
        if failed is not None and failed <= p0:
            return _obstruction_report(current, d0, d2, p0)
        step = unknowns.add_solution(solution.particular, identity_transformation(nerve, flavor, alg))
        t = compose_transformations(step, t, datum)


def _obstruction_report(datum, d0, d2, p) -> ObstructionReport:
    """The triangle defect at the failing order, with its Cech class decided
    by the coboundary solver on the constant/truncated layer, and the local
    defects at that order.  With no triangle defect at that order the
    failure lies in the locals or the edges, which the triangle class cannot
    decide: the class is then undecided and the detail names the charts
    whose local residue is nonzero."""
    nerve, alg = datum.nerve, datum.algebra
    cocycle = {}
    renders = {}
    degree_bound = -1
    all_const = True
    for tr, v in d2.items():
        layer = v.graded_part(p)
        if layer.is_zero():
            continue
        cocycle[tr] = layer
        renders[tr] = layer.render()
        for payload in layer.parts.values():
            c = payload.get(())
            if c is not None and not c.numer.is_constant():
                all_const = False
                degree_bound = max(degree_bound, c.numer.total_degree())
    local_residues = {k: v.graded_part(p) for k, v in d0.items()}
    if not cocycle:
        faces = [nerve.label(k) for k, v in sorted(local_residues.items()) if not v.is_zero()]
        where = f"nonzero local residue on {', '.join(faces)}" if faces else "edge defects only"
        return ObstructionReport(
            p, {}, None,
            f"first unsolvable central layer; no triangle defect, {where}", local_residues,
        )
    class_is_zero: Optional[bool] = None
    try:
        spec = LayerSpec(nerve, -1 if all_const else degree_bound)
        cx = CechComplex(spec)
        # decide per layer basis monomial of order p
        zero = True
        for li in [i for i in range(len(alg.basis)) if alg.basis_order(i) == p]:
            data = {}
            for tr, v in cocycle.items():
                payload = v.parts.get(li)
                if not payload:
                    continue
                c = payload.get(())
                if c is None:
                    continue
                data[tr] = spec.expand(tr, c)
            if data and cx.coboundary_solve(2, data) is None:
                zero = False
        class_is_zero = zero
    except NerveError:
        class_is_zero = None
    return ObstructionReport(
        p, renders, class_is_zero, "first unsolvable central layer", local_residues
    )


def obstruction(datum: MultDescentDatum, against: Optional[MultDescentDatum] = None):
    """Order-by-order trivialization.  Returns a TwistedTransformation when
    the datum trivializes (edge gauges and triple units both killed; against
    a given global datum, full equality), else the first ObstructionReport."""
    return equiv_solve(datum, against)


# ---------------------------------------------------------------------------
# int: MC(Thom-Sullivan) -> ADD
# ---------------------------------------------------------------------------


def int_mc(handle: TSHandle, beta: DGLAElement | MCElement) -> AddDescentDatum:
    """Integrate an MC element of the Thom-Sullivan DG Lie algebra to an
    additive descent datum: the square-zero formulas (level-0 value, edge and
    triangle simplex integrals) plus order-by-order central-layer corrections
    of conditions (i)-(iv).  The input is first checked for compatibility
    (validate_compatibility, raising TSError) and for the MC equation
    (require_mc)."""
    b = beta.element if isinstance(beta, MCElement) else beta
    validate_compatibility(b)
    require_mc(b)
    datum = AddDescentDatum(
        handle.nerve, carrier_of_kind(handle.kind).flavor, handle.algebra,
        *(_split_faces(integrate_component(handle, b, level)) for level in range(3)),
    )
    for p in range(2, handle.algebra.order + 1):
        rep = check_add(datum)
        if rep.ok:
            break
        first = min(v.order for v in rep.violations)
        if first > p:
            continue
        if first < p:
            raise AlgebraError(
                f"int_mc correction fell behind at order {first}: solver bug"
            )
        datum = _int_correct(datum, p, rep.defects)
    rep = check_add(datum)
    if not rep.ok:
        raise AlgebraError("int_mc failed to produce a valid datum: " + rep.render())
    return datum


def _split_faces(element: DGLAElement) -> dict:
    """Turn a Cech-level element into per-face DGLAElements."""
    out = {}
    car = element.carrier
    for face in car.nerve.level_faces(car.level):
        parts = {}
        for bi, comp in element.parts.items():
            v = comp.get(face)
            if v:
                parts[bi] = v
        if parts:
            out[face] = DGLAElement(car.inner(face), element.algebra, element.degree, parts)
    return out


def _int_correct(datum: AddDescentDatum, p: int, defects: Mapping) -> AddDescentDatum:
    """Solve the order-p linear correction (c0, c1, c2) of (delta0, delta1,
    delta2) for conditions (i)-(iv), given their ``defects`` as check_add
    computed them; inconsistency surfaces as an error naming the order.

    The conditions are linear in the correction through d plus the Cech
    coboundary: the unknown c_l at a level-l face f enters condition l at f
    through d, with sign + at level 0 and - above, and condition l+1 at each
    coface g of f through its restriction to g, with sign (-1)^(l+1) times
    the coface sign."""
    alg = datum.algebra
    window = _window(datum, defects.values(), 2)
    layer_idx = [i for i in range(len(alg.basis)) if alg.basis_order(i) == p]
    names = (("delta0", 0, 1), ("delta1", 1, 0), ("delta2", 2, -1))
    unknowns = _Unknowns(datum, window, layer_idx, names)

    def effects(name, f, u):
        level = len(f) - 1
        out = [(_CONDITIONS[level], f, u.d() if level == 0 else -u.d())]
        for g, sign in datum.nerve.cofaces(f):
            moved = datum.move(f, g, u)
            out.append((_CONDITIONS[level + 1], g, moved if sign * (-1) ** (level + 1) > 0 else -moved))
        return out

    layer_defects = {key: v.graded_part(p) for key, v in defects.items()}
    solution = _assemble(unknowns, window, layer_defects, effects).solve().particular
    if solution is None:
        raise AlgebraError(
            f"int_mc linear correction system inconsistent at adic order {p} "
            "(implementation bug or MC violation)"
        )
    return unknowns.add_solution(solution, datum.copy())
