"""Text and JSON formats: the canonical expression syntax for polynomials,
localized fractions, polyvectors, polydifferential cochains and parameter
series; JSON loaders for nerves, descent data, Poisson inputs and
Thom-Sullivan elements; and re-parseable serializers for descent data.

Every constructive command's serialized output parses back through these
loaders and passes the corresponding check (tested)."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .exactalg import AlgebraError, ChartAlgebra, LocalizedPoly
from .params import ParamAlgebra, ParamSeries, param_algebra_truncate
from .dgla import DGLAElement
from .polyvec import PolyvecCarrier, merge_odd
from .polydiff import PolydiffCarrier
from .cechnerve import CechCarrier, CoverNerve, RestrictionMap, build_nerve
from .cechnerve import carrier_of_flavor, carrier_of_kind
from .descent import datum_of_kind
from .thomsullivan import ts_normalize, whitney


class FormatError(ValueError):
    """Schema or expression syntax error (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# tokenizer / parser for the canonical expression syntax
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+)|(?P<slot>d\[[0-9,\s]*\])|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[\^*/+\-()]|⊗|@))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise FormatError(f"cannot tokenize {rest[:20]!r} (position {pos})")
        if m.group("number"):
            out.append(("num", m.group("number")))
        elif m.group("slot"):
            out.append(("slot", m.group("slot")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            op = m.group("op")
            if op == "@":
                op = "⊗"
            out.append(("op", op))
        pos = m.end()
    return out


@dataclass
class ExprContext:
    """Everything a parsed expression may refer to."""

    algebra: ParamAlgebra
    chart: ChartAlgebra
    carrier_kind: str  # 'polyvec' | 'polydiff'

    def carrier(self):
        deriv = [
            i for i, v in enumerate(self.chart.variables) if not _is_tvar(v)
        ]
        return carrier_of_kind(self.carrier_kind)(self.chart, deriv)


def _is_tvar(name: str) -> bool:
    return bool(re.fullmatch(r"t\d+", name))


class _Value:
    """Intermediate value: a parameter series times a coefficient times an
    optional geometric part (wedge key with sign, or slot tuple)."""

    __slots__ = ("series", "coeff", "geom", "gsign")

    def __init__(self, series: ParamSeries, coeff: LocalizedPoly, geom=None, gsign=1):
        self.series = series
        self.coeff = coeff
        self.geom = geom  # None | ('vec', tuple) | ('slots', tuple)
        self.gsign = gsign


class ExprParser:
    def __init__(self, ctx: ExprContext, text: str):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.car = ctx.carrier()

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    # value assembly -------------------------------------------------------

    def _one(self) -> _Value:
        return _Value(self.ctx.algebra.one(), self.ctx.chart.one())

    def _mul(self, a: _Value, b: _Value) -> _Value:
        if isinstance(b, _ElementValue):
            a, b = b, a
        if isinstance(a, _ElementValue):
            if b.geom is not None:
                raise FormatError("a parenthesized sum multiplies only scalar factors")
            return _ElementValue(_scalar_times_element(b, a.element))
        if a.geom is not None and b.geom is not None:
            raise FormatError("cannot multiply two direction/slot factors with *")
        geom = a.geom if a.geom is not None else b.geom
        gsign = a.gsign * b.gsign
        return _Value(a.series * b.series, a.coeff * b.coeff, geom, gsign)

    def _wedge(self, a: _Value, b: _Value) -> _Value:
        if (
            a.geom is None or b.geom is None
            or a.geom[0] != "vec" or b.geom[0] != "vec"
        ):
            raise FormatError("wedge ^ needs direction factors on both sides")
        ka = a.geom[1]
        kb = b.geom[1]
        merged = merge_odd(ka, kb)
        if merged is None:
            # repeated direction: the zero polyvector
            return _Value(self.ctx.algebra.one(), self.ctx.chart.zero(), ("vec", ka), 1)
        key, sign = merged
        return _Value(
            a.series * b.series, a.coeff * b.coeff, ("vec", key), a.gsign * b.gsign * sign
        )

    def _tensor(self, a: _Value, b: _Value) -> _Value:
        if a.geom is None or b.geom is None or a.geom[0] != "slots" or b.geom[0] != "slots":
            raise FormatError("tensor needs d[...] factors on both sides")
        return _Value(
            a.series * b.series,
            a.coeff * b.coeff,
            ("slots", a.geom[1] + b.geom[1]),
            a.gsign * b.gsign,
        )

    # grammar ---------------------------------------------------------------

    def parse(self) -> DGLAElement:
        acc = None
        sign = 1
        kind, val = self.peek()
        if (kind, val) == ("op", "-"):
            self.take()
            sign = -1
        while True:
            v = self.parse_term()
            acc = _sum(acc, self._to_element(v, sign))
            kind, val = self.peek()
            if (kind, val) == ("op", "+"):
                self.take()
                sign = 1
            elif (kind, val) == ("op", "-"):
                self.take()
                sign = -1
            else:
                break
        if self.pos != len(self.tokens):
            raise FormatError(f"unexpected trailing tokens near {self.tokens[self.pos]}")
        assert acc is not None
        return acc

    def parse_term(self) -> _Value:
        v = self.parse_factor()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "*"):
                self.take()
                v = self._mul(v, self.parse_factor())
            elif (kind, val) == ("op", "/"):
                self.take()
                d = self.parse_factor()
                if d.geom is not None:
                    raise FormatError("cannot divide by a direction factor")
                if not d.series == self.ctx.algebra.one():
                    raise FormatError("cannot divide by a parameter series")
                try:
                    inverse = d.coeff.invert()
                except AlgebraError as exc:
                    raise FormatError(f"cannot divide: {exc}") from None
                v = self._mul(v, _Value(self.ctx.algebra.one(), inverse))
            elif (kind, val) == ("op", "^"):
                self.take()
                rhs = self.parse_factor_nopow()
                if v.geom is not None and rhs.geom is not None:
                    v = self._wedge(v, rhs)
                else:
                    raise FormatError("misplaced ^ (integer powers bind inside factors)")
            elif (kind, val) == ("op", "⊗"):
                self.take()
                v = self._tensor(v, self.parse_factor_nopow())
            else:
                return v

    def parse_factor(self) -> _Value:
        v = self.parse_factor_nopow()
        kind, val = self.peek()
        if (kind, val) == ("op", "^"):
            # integer power only for scalar factors; direction wedges are
            # handled in parse_term
            if v.geom is None:
                self.take()
                k2, v2 = self.take()
                if k2 != "num":
                    raise FormatError("expected an integer exponent after ^")
                n = int(v2)
                out = self._one()
                for _ in range(n):
                    out = self._mul(out, v)
                return out
        return v

    def parse_factor_nopow(self) -> _Value:
        kind, val = self.take()
        if kind == "num":
            return _Value(
                self.ctx.algebra.one(),
                LocalizedPoly.const(self.ctx.chart, int(val)),
            )
        if kind == "slot":
            body = val[2:-1].strip()
            try:
                alpha = tuple(int(x) for x in body.split(",")) if body else ()
            except ValueError:
                raise FormatError(f"slot {val} needs comma-separated integers") from None
            if not isinstance(self.car, PolydiffCarrier):
                raise FormatError(f"slot {val} needs a polydifferential context")
            deriv = [
                i for i, v2 in enumerate(self.ctx.chart.variables) if not _is_tvar(v2)
            ]
            if len(alpha) != len(deriv):
                raise FormatError(
                    f"slot {val} has {len(alpha)} entries for {len(deriv)} variables"
                )
            return _Value(self.ctx.algebra.one(), self.ctx.chart.one(), ("slots", (alpha,)))
        if kind == "name":
            if val in self.ctx.algebra.gens:
                return _Value(self.ctx.algebra.gen(val), self.ctx.chart.one())
            if val in self.ctx.chart.variables:
                return _Value(self.ctx.algebra.one(), self.ctx.chart.var(val))
            if val.startswith("d") and val[1:] in self.ctx.chart.variables:
                if not isinstance(self.car, PolyvecCarrier):
                    raise FormatError(f"direction {val} needs a polyvector context")
                i = self.ctx.chart.variables.index(val[1:])
                return _Value(self.ctx.algebra.one(), self.ctx.chart.one(), ("vec", (i,)))
            raise FormatError(f"unknown symbol {val!r}")
        if (kind, val) == ("op", "("):
            return self._parse_subexpr()
        if (kind, val) == ("op", "-"):
            v = self.parse_factor_nopow()
            if isinstance(v, _ElementValue):
                return _ElementValue(v.element.scale(-1))
            return _Value(v.series.scale(-1), v.coeff, v.geom, v.gsign)
        raise FormatError(f"unexpected token {val!r}")

    def _parse_subexpr(self) -> _Value:
        """Parse a parenthesized expression.  Sums of pure scalars collapse to
        a scalar value; sums with geometry return an opaque element value."""
        values: list[tuple[int, _Value]] = []
        sign = 1
        kind, val = self.peek()
        if (kind, val) == ("op", "-"):
            self.take()
            sign = -1
        while True:
            v = self.parse_term()
            values.append((sign, v))
            kind, val = self.peek()
            if (kind, val) == ("op", "+"):
                self.take()
                sign = 1
            elif (kind, val) == ("op", "-"):
                self.take()
                sign = -1
            elif (kind, val) == ("op", ")"):
                self.take()
                break
            else:
                raise FormatError(f"expected + - or ) in parentheses, found {val!r}")
        if all(v.geom is None for _, v in values):
            # scalar sum: requires a common parameter-series factor of 1, or
            # collapse into (series (x) coeff) pairs -- here we keep exactness
            # by demanding the series parts be equal (common case: all 1)
            acc = None
            for s, v in values:
                if not v.series == self.ctx.algebra.one():
                    acc = None
                    break
                c = v.coeff.scale(s)
                acc = c if acc is None else acc + c
            else:
                return _Value(self.ctx.algebra.one(), acc)
        # general case: build the element and wrap it
        elt = None
        for s, v in values:
            elt = _sum(elt, self._to_element(v, s))
        return _ElementValue(elt)

    def _to_element(self, v: _Value, sign: int) -> DGLAElement:
        if isinstance(v, _ElementValue):
            return v.element.scale(sign)
        coeff = v.coeff.scale(sign * v.gsign)
        if v.geom is None:
            payload = self.car.from_coeff(coeff)
            degree = -1
        else:
            payload = {v.geom[1]: coeff} if not coeff.is_zero() else {}
            degree = len(v.geom[1]) - 1
        parts = {}
        for i, q in v.series.coeffs.items():
            pay = {k: c.scale(q) for k, c in payload.items()}
            pay = {k: c for k, c in pay.items() if not c.is_zero()}
            if pay:
                parts[i] = pay
        return DGLAElement(self.car, self.ctx.algebra, degree, parts)


def _sum(acc: Optional[DGLAElement], elt: DGLAElement) -> DGLAElement:
    if acc is None:
        return elt
    if acc.degree != elt.degree:
        raise FormatError(f"cannot add terms of degrees {acc.degree} and {elt.degree}")
    return acc + elt


class _ElementValue(_Value):
    """A parenthesized mixed sum, already assembled."""

    def __init__(self, element: DGLAElement):
        super().__init__(element.algebra.one(), None)
        self.element = element

    @property
    def geom(self):  # type: ignore[override]
        return ("element", None)

    @geom.setter
    def geom(self, v):
        pass


def parse_element(ctx: ExprContext, text: str) -> DGLAElement:
    return ExprParser(ctx, text).parse()


# geometry multiplication for _ElementValue products -------------------------


def _scalar_times_element(scalar: _Value, elt: DGLAElement) -> DGLAElement:
    out = elt.scale_series(scalar.series)
    coeff = scalar.coeff.scale(scalar.gsign)

    def mulc(payload):
        return {
            k: v
            for k, v in ((k, c * coeff) for k, c in payload.items())
            if not v.is_zero()
        }

    return out.map_payload(mulc)


# ---------------------------------------------------------------------------
# JSON loaders
# ---------------------------------------------------------------------------


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


def json_int(x, low: Optional[int] = None, high: Optional[int] = None) -> bool:
    """x is a JSON integer, within [low, high] where given; JSON true and
    false, which Python reads as 1 and 0, are not integers here."""
    return type(x) is int and (low is None or x >= low) and (high is None or x <= high)


def _strings(obj, kind: type) -> bool:
    """obj is a list of strings (kind list) or an object whose values are
    strings (kind dict)."""
    return isinstance(obj, kind) and all(
        isinstance(s, str) for s in (obj.values() if kind is dict else obj)
    )


def load_expression(ctx: ExprContext, obj: Mapping, key: str, degree: int) -> DGLAElement:
    """Parse the expression string obj[key] as an element of the given
    degree."""
    text = obj.get(key)
    _require(isinstance(text, str), f"{key} must be an expression string")
    elt = parse_element(ctx, text)
    _require(elt.degree == degree, f"{key} expression must have {elt.carrier.noun} degree {degree}")
    return elt


def load_params(obj: Mapping) -> ParamAlgebra:
    _require(isinstance(obj, dict), "params must be an object")
    gens = obj.get("gens")
    order = obj.get("order")
    _require(_strings(gens, list) and gens, "params.gens must be a nonempty list of strings")
    _require(len(set(gens)) == len(gens), "params.gens must be distinct")
    _require(json_int(order, 1), "params.order must be >= 1")
    extra = obj.get("extra_relations", [])
    _require(isinstance(extra, list) and all(
        isinstance(e, list) and all(json_int(k) for k in e) for e in extra
    ), "params.extra_relations must be a list of exponent lists")
    _require(all(len(e) == len(gens) and min(e) >= 0 and sum(e) > 0 for e in extra),
             "params.extra_relations entries need one exponent >= 0 per generator, not all 0")
    return param_algebra_truncate(gens, order, [tuple(e) for e in extra])


def load_chart(obj: Mapping) -> ChartAlgebra:
    _require(isinstance(obj, dict), "chart must be an object")
    raw_vars = obj.get("variables", [])
    raw_dens = obj.get("denominators", [])
    _require(_strings(raw_vars, list), "chart variables must be a list of strings")
    _require(_strings(raw_dens, list), "chart denominators must be a list of expression strings")
    variables = tuple(raw_vars)
    _require(len(set(variables)) == len(variables), "chart variables must be distinct")
    plain = ChartAlgebra(variables)
    dens = []
    for s in raw_dens:
        p = parse_localized(plain, s)
        _require(not p.is_zero(), f"chart denominator {s!r} is zero")
        dens.append(p.numer)
    return ChartAlgebra(variables, tuple(dens))


def _face_of(label: str, indices: Sequence[str], seen: Optional[dict] = None) -> tuple:
    """The face a label names.  ``seen`` maps the faces of one section to
    their labels; a second label of a face in it is an input error."""
    pos = {name: i for i, name in enumerate(indices)}
    parts = [p.strip() for p in label.split(",")]
    for p in parts:
        _require(p in pos, f"unknown chart name {p!r}")
    out = tuple(pos[p] for p in parts)
    _require(list(out) == sorted(set(out)), f"face {label!r} is not strictly increasing")
    if seen is not None:
        _require(out not in seen, f"labels {seen.get(out)!r} and {label!r} name the same face")
        seen[out] = label
    return out


def load_nerve(obj: Mapping) -> CoverNerve:
    _require(isinstance(obj, dict), "nerve must be an object")
    _require(json_int(obj.get("schema"), 1, 1), "nerve: schema must be 1")
    indices = obj.get("indices")
    _require(_strings(indices, list) and indices, "nerve.indices must be a nonempty list of strings")
    _require(len(set(indices)) == len(indices), "nerve.indices must be distinct")
    faces_obj = obj.get("faces")
    _require(isinstance(faces_obj, dict) and faces_obj, "nerve.faces must be an object")
    algebras, seen = {}, {}
    for label, chart_obj in faces_obj.items():
        algebras[_face_of(label, indices, seen)] = load_chart(chart_obj)
    restrictions = {}
    specs = obj.get("restrictions") or {}
    _require(isinstance(specs, dict), "nerve.restrictions must be an object")
    try:
        for key, spec in specs.items():
            m = re.fullmatch(r"(.*?)\s*->\s*(.*)", key)
            _require(m is not None, f"restriction key {key!r} must be 'FACE -> COFACE'")
            f = _face_of(m.group(1), indices)
            g = _face_of(m.group(2), indices)
            _require(f in algebras and g in algebras,
                     f"restriction {key!r} names a face absent from nerve.faces")
            _require((f, g) not in restrictions, f"restriction {key!r} names the faces of another key")
            _require(isinstance(spec, dict), f"restriction {key!r} must be an object")
            src, tgt = algebras[f], algebras[g]
            images = []
            img_map = spec.get("images", {})
            _require(_strings(img_map, dict),
                     f"restriction {key!r}: images must map variables to expression strings")
            for v in src.variables:
                _require(v in img_map, f"restriction {key!r}: missing image of {v}")
                images.append(parse_localized(tgt, img_map[v]))
            derivs = None
            if "derivations" in spec:
                derivs = []
                ctx = ExprContext(param_algebra_truncate(["_eps"], 1), tgt, "polyvec")
                deriv_map = spec["derivations"]
                _require(_strings(deriv_map, dict),
                         f"restriction {key!r}: derivations must map variables to expression strings")
                for v in src.variables:
                    _require(v in deriv_map, f"restriction {key!r}: missing derivation of {v}")
                    elt = parse_element(ctx, deriv_map[v])
                    _require(elt.degree == 0, "derivation images must be vector fields")
                    derivs.append(elt.parts.get(0, {}))
            restrictions[(f, g)] = RestrictionMap.build(src, tgt, images, derivs)
        return build_nerve(indices, algebras, restrictions)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from exc


def parse_localized(chart: ChartAlgebra, text: str) -> LocalizedPoly:
    alg = param_algebra_truncate(["_eps"], 1)
    ctx = ExprContext(alg, chart, "polyvec")
    elt = parse_element(ctx, text)
    _require(elt.degree == -1, "expected a scalar expression")
    if elt.is_zero():
        return chart.zero()
    _require(set(elt.parts) == {0}, "scalar expression must not involve parameters")
    return elt.parts[0].get((), chart.zero())


def _load_flavor(obj: Mapping) -> type:
    """The chart-carrier class of the flavour obj["flavor"]."""
    try:
        return carrier_of_flavor(obj.get("flavor"))
    except AlgebraError:
        raise FormatError("flavor must be associative|poisson") from None


def load_descent(obj: Mapping):
    _require(json_int(obj.get("schema"), 1, 1), "descent datum: schema must be 1")
    try:
        cls = datum_of_kind(obj.get("kind"))
    except AlgebraError:
        raise FormatError("kind must be 'mdd' or 'add'") from None
    carrier_cls = _load_flavor(obj)
    algebra = load_params(obj.get("params"))
    nerve = load_nerve(obj.get("nerve"))
    data = []
    for level, key in enumerate(cls.sections):
        section = obj.get(key) or {}
        _require(_strings(section, dict), f"{key} must map faces to expression strings")
        out, seen = {}, {}
        degree = 1 - level
        for label, text in sorted(section.items()):
            face = _face_of(label, nerve.indices, seen)
            _require(len(face) == level + 1, f"{key}: face {label!r} has the wrong level")
            _require(face in nerve.faces, f"{key}: face {label!r} absent from the nerve")
            elt = parse_element(ExprContext(algebra, nerve.algebra(face), carrier_cls.kind), text)
            _require(elt.degree == degree or elt.is_zero(),
                     f"{key}[{label}]: expected degree {degree}")
            if not elt.is_zero():
                out[face] = elt
        data.append(out)
    return cls.from_components(nerve, carrier_cls.flavor, algebra, *data)


def load_ts_element(obj: Mapping):
    """Thom-Sullivan input: a sum of Whitney images of Cech cochains, plus an
    optional TS gauge (also Whitney-built) acting on it, plus raw components."""
    _require(json_int(obj.get("schema"), 1, 1), "ts element: schema must be 1")
    kind = _load_flavor(obj).kind
    algebra = load_params(obj.get("params"))
    nerve = load_nerve(obj.get("nerve"))
    handle = ts_normalize(nerve, kind, algebra)
    beta = handle.zero(1)
    for spec in _spec_list(obj, "whitney"):
        beta = beta + _whitney_from_spec(handle, spec, total_degree=1)
    for spec in _spec_list(obj, "components"):
        beta = beta + _raw_ts_component(handle, spec)
    from .dgla import gauge_act

    for spec in _spec_list(obj, "gauge"):
        g = _whitney_from_spec(handle, spec, total_degree=0)
        beta = gauge_act(g, beta)
    return handle, beta


def _spec_list(obj: Mapping, key: str) -> list:
    specs = obj.get(key, [])
    _require(isinstance(specs, list) and all(isinstance(s, dict) for s in specs),
             f"ts element: {key} must be a list of objects")
    return specs


def _whitney_from_spec(handle, spec, total_degree):
    nerve, algebra = handle.nerve, handle.algebra
    q = spec.get("q")
    _require(json_int(q, 0, total_degree + 1), f"whitney spec needs q >= 0 and q <= {total_degree + 1}")
    internal = total_degree - q
    car = CechCarrier(nerve, handle.kind, q, 0)
    parts, seen = {}, {}
    values = spec.get("values") or {}
    _require(_strings(values, dict), "whitney spec values must map faces to expression strings")
    for label, text in sorted(values.items()):
        face = _face_of(label, nerve.indices, seen)
        _require(len(face) == q + 1, f"whitney value face {label!r} has level != q")
        _require(face in nerve.faces, f"whitney value face {label!r} absent from the nerve")
        elt = parse_element(ExprContext(algebra, nerve.algebra(face), handle.kind), text)
        _require(elt.degree == internal or elt.is_zero(),
                 f"whitney value at {label!r}: expected internal degree {internal}")
        for bi, payload in elt.parts.items():
            parts.setdefault(bi, {})[face] = payload
    cochain = DGLAElement(car, algebra, internal, parts)
    return whitney(handle, q, cochain)


def _raw_ts_component(handle, spec):
    nerve, algebra = handle.nerve, handle.algebra
    level = spec.get("level")
    dts = spec.get("dts", [])
    label = spec.get("face")
    text = spec.get("value")
    _require(json_int(level, 0, nerve.max_level()),
             "ts component needs a level between 0 and the nerve's top level")
    _require(isinstance(label, str), "ts component needs a face label string")
    _require(isinstance(dts, list) and all(json_int(t) for t in dts),
             "ts component dts must be a list of integers")
    _require(isinstance(text, str), "ts component needs a value string")
    dts = frozenset(dts)
    face = _face_of(label, nerve.indices)
    _require(len(face) == level + 1, f"ts component face {label!r} has level != {level}")
    _require(face in nerve.faces, f"ts component face {label!r} absent from the nerve")
    _require(dts <= frozenset(range(1, level + 1)), f"ts component dts must lie in 1..{level}")
    from .cechnerve import extend_chart

    chart = extend_chart(nerve.algebra(face), level)
    elt = parse_element(ExprContext(algebra, chart, handle.kind), text)
    internal = 1 - len(dts)
    _require(elt.degree == internal, f"ts component at {label!r}: wrong internal degree")
    payload: dict = {}
    for bi, pay in elt.parts.items():
        payload[bi] = {(level, dts): {face: pay}}
    return DGLAElement(handle.carrier, algebra, 1, payload)


# ---------------------------------------------------------------------------
# serializers (re-parseable)
# ---------------------------------------------------------------------------


def render_params(algebra: ParamAlgebra) -> dict:
    out = {"gens": list(algebra.gens), "order": algebra.order}
    if algebra.extra_relations:
        out["extra_relations"] = [list(e) for e in algebra.extra_relations]
    return out


def render_chart(chart: ChartAlgebra) -> dict:
    return {
        "variables": list(chart.variables),
        "denominators": [d.render() for d in chart.denominators],
    }


def render_nerve(nerve: CoverNerve) -> dict:
    faces = {}
    for f in sorted(nerve.faces):
        faces[nerve.label(f)] = render_chart(nerve.algebra(f))
    restrictions = {}
    for f in sorted(nerve.faces):
        for g, _ in nerve.cofaces(f):
            rm = nerve.restriction(f, g)
            images = {
                v: rm.var_images[i].render()
                for i, v in enumerate(rm.source.variables)
            }
            derivs = {}
            car = PolyvecCarrier(rm.target)
            for i, v in enumerate(rm.source.variables):
                derivs[v] = car.render(rm.deriv_images[i], 0)
            entry = {"images": images}
            if derivs:
                entry["derivations"] = derivs
            restrictions[f"{nerve.label(f)} -> {nerve.label(g)}"] = entry
    return {
        "schema": 1,
        "kind": "nerve",
        "indices": list(nerve.indices),
        "faces": faces,
        "restrictions": restrictions,
    }


def render_descent(datum) -> dict:
    nerve = datum.nerve
    body = {}
    for key, comps in zip(datum.sections, datum.components()):
        body[key] = {nerve.label(f): comps[f].render() for f in sorted(comps) if not comps[f].is_zero()}
    return {
        "schema": 1,
        "kind": datum.kind,
        "flavor": datum.flavor,
        "params": render_params(datum.algebra),
        "nerve": render_nerve(nerve),
        **body,
    }


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
