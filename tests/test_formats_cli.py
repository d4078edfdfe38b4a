import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from starcover import (
    ChartAlgebra,
    DGLAElement,
    LocalizedPoly,
    Poly,
    cech_cohomology,
    check_mdd,
    exp_add,
    int_mc,
    octahedron_nerve,
    param_algebra_truncate,
    require_mc,
    ts_normalize,
    whitney,
)
from starcover.cli import main
from starcover.descent import MultDescentDatum, face_carrier
from starcover import formats
from starcover.formats import (
    ExprContext,
    FormatError,
    dumps,
    load_descent,
    load_nerve,
    load_ts_element,
    parse_element,
    render_descent,
    render_nerve,
)

from conftest import one_chart_zero_and_moyal, simplex_nerve


def test_expression_round_trips():
    R = param_algebra_truncate(["hbar"], 3)
    chart = ChartAlgebra(("x", "y", "z"))
    ctx = ExprContext(R, chart, "polyvec")
    for text in (
        "hbar * (z*dx^dy - y*dx^dz + x*dy^dz)",
        "3/2*x^2*y - 1",
        "x*dy + hbar^2 * (x^2*y*dz)",
        "-dx^dy + 2*dy^dz",
    ):
        e = parse_element(ctx, text)
        assert parse_element(ctx, e.render()) == e
    ctx2 = ExprContext(R, ChartAlgebra(("x", "y")), "polydiff")
    for text in (
        "hbar * (1/2*d[1,0]⊗d[0,1] - 1/2*d[0,1]⊗d[1,0])",
        "hbar^2 * (x*d[2,0]⊗d[0,2])",
        "x + hbar * (y)",
    ):
        e = parse_element(ctx2, text)
        assert parse_element(ctx2, e.render()) == e


def test_parse_errors():
    R = param_algebra_truncate(["hbar"], 2)
    ctx = ExprContext(R, ChartAlgebra(("x",)), "polyvec")
    with pytest.raises(FormatError):
        parse_element(ctx, "q + 1")
    with pytest.raises(FormatError):
        parse_element(ctx, "dx^")
    with pytest.raises(FormatError):
        parse_element(ctx, "d[1]⊗d[1]")  # tensor needs polydiff context


def test_nerve_json_round_trip():
    nerve = octahedron_nerve()
    obj = render_nerve(nerve)
    nerve2 = load_nerve(obj)
    assert nerve2.indices == nerve.indices
    assert nerve2.faces == nerve.faces
    # two-chart localized nerve survives the round trip too
    C0 = ChartAlgebra(("x",))
    C1 = ChartAlgebra(("y",))
    C01 = ChartAlgebra(("x",), (Poly.var(("x",), "x"),))
    from starcover import RestrictionMap, build_nerve

    inv_x = LocalizedPoly(C01, Poly.const(("x",), 1), (1,))
    nerve3 = build_nerve(
        ["U0", "U1"],
        {(0,): C0, (1,): C1, (0, 1): C01},
        {
            ((0,), (0, 1)): RestrictionMap.build(C0, C01, [C01.var("x")]),
            ((1,), (0, 1)): RestrictionMap.build(C1, C01, [inv_x]),
        },
    )
    obj3 = render_nerve(nerve3)
    nerve4 = load_nerve(obj3)
    rm = nerve4.restriction((1,), (0, 1))
    assert rm.var_images[0] == inv_x


def octahedron_mdd_json():
    nerve = octahedron_nerve()
    cocycle = cech_cohomology(nerve).representative_cocycles(2)[0]
    triples = {}
    for t in nerve.level_faces(2):
        coords = cocycle.get(t)
        if coords and coords[0]:
            triples[nerve.label(t)] = f"hbar * ({coords[0]})"
    return {
        "schema": 1,
        "kind": "mdd",
        "flavor": "associative",
        "params": {"gens": ["hbar"], "order": 2},
        "nerve": render_nerve(nerve),
        "locals": {},
        "edges": {},
        "triples": triples,
    }


def test_descent_serialize_load_check(rng):
    nerve = simplex_nerve(3)
    R = param_algebra_truncate(["hbar"], 2)
    H = ts_normalize(nerve, "polyvec", R)
    car0 = face_carrier(nerve, "poisson", (0,))
    from starcover.cechnerve import CechCarrier

    comp = {}
    for f in nerve.level_faces(0):
        fcar = CechCarrier(nerve, "polyvec", 0, 0).face_carriers[f]
        comp[f] = fcar.term((0, 1), fcar.chart.one())
    pi0 = DGLAElement(CechCarrier(nerve, "polyvec", 0, 0), R, 1, {1: comp})
    beta = whitney(H, 0, pi0)
    add = int_mc(H, beta)
    obj = render_descent(add)
    add2 = load_descent(json.loads(dumps(obj)))
    from starcover import check_add

    assert check_add(add2).ok
    mdd = exp_add(add2)
    obj2 = render_descent(mdd)
    mdd2 = load_descent(obj2)
    assert check_mdd(mdd2).ok


def _run(args):
    from io import StringIO

    old = sys.stdout
    sys.stdout = StringIO()
    try:
        code = main(args)
        out = sys.stdout.getvalue()
    finally:
        sys.stdout = old
    return code, out


def test_cli_check_mdd_and_obstruction(tmp_path):
    path = tmp_path / "oct.json"
    path.write_text(dumps(octahedron_mdd_json()), encoding="utf-8")
    code, out = _run(["check-mdd", str(path)])
    assert code == 0
    assert json.loads(out)["ok"] is True
    code, out = _run(["obstruction", str(path)])
    assert code == 1
    rep = json.loads(out)
    assert rep["trivializable"] is False
    assert rep["class"] == "[c]*hbar"
    assert rep["order"] == 1


def test_cli_obstruction_undecided_class(tmp_path):
    # a failure in the locals alone has no triangle class to decide
    nerve, R, zero, moyal = one_chart_zero_and_moyal()
    paths = []
    for name, local in (("zero", zero), ("moyal", moyal)):
        datum = MultDescentDatum(nerve, "associative", R, {(0,): require_mc(local)}, {}, {})
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dumps(render_descent(datum)), encoding="utf-8")
    code, out = _run(["obstruction", str(paths[0]), "--against", str(paths[1])])
    assert code == 1
    rep = json.loads(out)
    assert (rep["order"], rep["class_is_zero"], rep["class"], rep["cocycle"]) == (
        1, None, "undecided", {}
    )


def test_cli_determinism(tmp_path):
    path = tmp_path / "oct.json"
    path.write_text(dumps(octahedron_mdd_json()), encoding="utf-8")
    outs = set()
    for _ in range(2):
        code, out = _run(["obstruction", str(path)])
        outs.add(out)
    assert len(outs) == 1


DATA = Path(__file__).resolve().parents[1] / "scripts" / "data"
PINNED = Path(__file__).resolve().parent / "data" / "cli"

# The README samples on scripts/data with their exit codes; the expected
# stdout bytes are kept in tests/data/cli/<id>.out.
README_SAMPLES = {
    "check-mdd-octahedron": (0, ["check-mdd", "octahedron-hbar.json"]),
    "check-mdd-trivial": (0, ["check-mdd", "trivial.json"]),
    "obstruction-octahedron": (1, ["obstruction", "octahedron-hbar.json"]),
    "obstruction-trivial": (0, ["obstruction", "trivial.json"]),
    "equiv-octahedron-trivial": (1, ["equiv", "octahedron-hbar.json", "trivial.json"]),
    "quantize-so3": (0, ["quantize", "so3.json", "--order", "2"]),
    "star-table-so3": (0, ["star-table", "so3.json"]),
    "cohomology-line-cover": (0, ["cohomology", "line-cover.json"]),
    "int-mc-ts-pipeline": (0, ["int-mc", "ts-pipeline.json"]),
    "int-mc-ts-moyal": (0, ["int-mc", "ts-moyal.json"]),
}


@pytest.mark.parametrize("sample", README_SAMPLES)
def test_cli_readme_samples(sample):
    code, args = README_SAMPLES[sample]
    argv = [str(DATA / a) if a.endswith(".json") else a for a in args]
    expected = (PINNED / f"{sample}.out").read_bytes().decode("utf-8")
    assert _run(argv) == (code, expected)


# The options each command reads; every command also takes --out and --format.
COMMAND_OPTIONS = {
    "check-mdd": {"--cert-degree"},
    "check-add": set(),
    "exp-add": {"--cert-degree"},
    "int-mc": set(),
    "equiv": set(),
    "obstruction": {"--against"},
    "quantize": {"--order", "--cert-degree"},
    "star-table": {"--cert-degree"},
    "cohomology": {"--degree-bound"},
    "selftest": {"--seed"},
}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_cli_help_lists_exactly_the_options_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    assert listed == COMMAND_OPTIONS[command] | {"--out", "--format"}


def test_cli_rejects_an_option_the_command_ignores(capsys):
    path = str(DATA / "trivial.json")
    with pytest.raises(SystemExit) as exc:
        main(["equiv", path, path, "--order", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order 3" in capsys.readouterr().err


@pytest.mark.parametrize("flavor", ["lie", ["poisson"], {"poisson": 1}, None])
@pytest.mark.parametrize("command", ["check-mdd", "int-mc"])
def test_cli_unknown_flavor(tmp_path, capsys, command, flavor):
    if command == "int-mc":
        obj = json.loads((DATA / "ts-pipeline.json").read_text(encoding="utf-8"))
    else:
        obj = octahedron_mdd_json()
    obj["flavor"] = flavor
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == "input error: flavor must be associative|poisson\n"


@pytest.mark.parametrize(
    "command",
    ["check-mdd", "check-add", "exp-add", "int-mc", "equiv", "obstruction",
     "quantize", "star-table", "cohomology"],
)
def test_cli_schema_error(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    inputs = [str(path)] * (2 if command == "equiv" else 1)
    for text in ("{\"schema\": 2}", "[1, 2]"):
        path.write_text(text, encoding="utf-8")
        assert main([command, *inputs]) == 2
        assert capsys.readouterr().err.startswith("input error: ")


def _ts_pipeline_with_component(tmp_path, component):
    obj = json.loads((DATA / "ts-pipeline.json").read_text(encoding="utf-8"))
    obj["components"] = [component]
    path = tmp_path / "ts.json"
    path.write_text(dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "component, alpha",
    [
        ({"level": 1, "dts": [], "face": "U0,U1", "value": "hbar^2 * x*dx^dy"}, "(1,)"),
        ({"level": 0, "dts": [], "face": "U0", "value": "hbar^2 * x*dx^dy"}, "(0,)"),
    ],
    ids=["edge", "vertex"],
)
def test_cli_int_mc_incompatible_component(tmp_path, capsys, component, alpha):
    path = _ts_pipeline_with_component(tmp_path, component)
    assert main(["int-mc", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"mathematical failure: compatibility fails for alpha={alpha} at face U0,U1, dt-set []\n"
    )


@pytest.mark.parametrize(
    "component",
    [
        {"level": 2, "dts": [1, 2], "face": "U0", "value": "hbar^2 * x"},
        {"level": 5, "dts": [], "face": "U0", "value": "hbar^2 * x*dx^dy"},
        {"level": 1, "dts": [7], "face": "U0,U1", "value": "hbar^2 * x*dx"},
    ],
    ids=["face-of-another-level", "level-above-top", "dt-outside-level"],
)
def test_cli_int_mc_malformed_component(tmp_path, capsys, component):
    # a face of another level, a level above the nerve's top, a dt index
    # outside the level
    path = _ts_pipeline_with_component(tmp_path, component)
    assert main(["int-mc", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ts component")


def _without_u1u2(then):
    """An edit of ts-pipeline.json: drop the faces U1,U2 and U0,U1,U2 and
    their restrictions from the nerve, then apply ``then``."""

    def edit(obj):
        nerve = obj["nerve"]
        for label in ("U1,U2", "U0,U1,U2"):
            del nerve["faces"][label]
        nerve["restrictions"] = {k: v for k, v in nerve["restrictions"].items() if "U1,U2" not in k}
        then(obj)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["whitney"].append(5), "ts element: whitney must be a list of objects"),
        (lambda obj: obj["whitney"][0]["values"].update(U0=5), "whitney spec values must map"),
        (lambda obj: obj.update(gauge=obj["gauge"][0]), "ts element: gauge must be a list of objects"),
        (lambda obj: obj.update(components=[{"level": 0, "dts": [], "face": 0, "value": "hbar^2 * x"}]),
         "ts component needs a face label string"),
        (lambda obj: obj.update(components=[{"level": 1, "dts": 1, "face": "U0,U1", "value": "hbar^2 * x"}]),
         "ts component dts must be a list of integers"),
        (lambda obj: obj.update(components=[{"level": 0, "dts": [], "face": "U0"}]),
         "ts component needs a value string"),
        # JSON true is no integer, though Python reads it as 1
        (lambda obj: obj.update(schema=True), "ts element: schema must be 1"),
        (lambda obj: obj["gauge"][1].update(q=True), "whitney spec needs q >= 0"),
        (lambda obj: obj.update(components=[{"level": True, "dts": [], "face": "U0,U1", "value": "hbar^2 * x"}]),
         "ts component needs a level between 0 and the nerve's top level"),
        (lambda obj: obj.update(components=[{"level": 1, "dts": [True], "face": "U0,U1", "value": "hbar^2 * x"}]),
         "ts component dts must be a list of integers"),
        # a face the nerve lacks, a face named twice, a restriction map that
        # refuses its denominators
        (_without_u1u2(lambda obj: obj["whitney"].append({"q": 1, "values": {"U1,U2": "hbar * x"}})),
         "whitney value face 'U1,U2' absent from the nerve"),
        (_without_u1u2(lambda obj: obj.update(
            components=[{"level": 1, "face": "U1,U2", "dts": [1], "value": "hbar * x"}])),
         "ts component face 'U1,U2' absent from the nerve"),
        (lambda obj: obj["whitney"][0]["values"].update({"U0 ": "hbar * dx^dy"}),
         "labels 'U0' and 'U0 ' name the same face"),
        (lambda obj: obj["nerve"]["faces"]["U0,U2"].update(denominators=["x"]),
         "element x is not invertible"),
        # q above the total degree + 1 leaves an internal degree below -1
        (lambda obj: obj["whitney"].append({"q": 3, "values": {}}), "whitney spec needs q >= 0 and q <= 2"),
        (lambda obj: obj["gauge"].append({"q": 2, "values": {}}), "whitney spec needs q >= 0 and q <= 1"),
    ],
    ids=["whitney-entry-not-object", "whitney-value-not-string", "gauge-object",
         "face-not-string", "dts-not-list", "no-value", "schema-true", "q-true", "level-true",
         "dt-true", "whitney-face-absent", "component-face-absent", "whitney-face-twice",
         "restriction-denominator", "whitney-q-too-high", "gauge-q-too-high"],
)
def test_cli_int_mc_mistyped_ts_input(tmp_path, capsys, edit, message):
    obj = json.loads((DATA / "ts-pipeline.json").read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / "ts.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["int-mc", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


def _octahedron_datum(kind):
    """scripts/data/octahedron-hbar.json as mdd data, or its triple defect
    as additive data."""
    obj = json.loads((DATA / "octahedron-hbar.json").read_text(encoding="utf-8"))
    if kind == "add":
        for key in ("locals", "edges", "triples"):
            obj.pop(key)
        obj.update(kind="add", delta2={"U0,U2,U4": "hbar * 1"})
    return obj


@pytest.mark.parametrize(
    "kind, key",
    [("mdd", "locals"), ("mdd", "edges"), ("mdd", "triples"),
     ("add", "delta0"), ("add", "delta1"), ("add", "delta2")],
)
@pytest.mark.parametrize("section", [[1], {"U0,U2,U4": 1}], ids=["list", "int-value"])
def test_cli_mistyped_descent_section(tmp_path, capsys, kind, key, section):
    obj = _octahedron_datum(kind)
    obj[key] = section
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main([f"check-{kind}", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"input error: {key} must map faces to expression strings"
    )


# An additive datum: the pinned int-mc output on ts-pipeline.json.
ADDITIVE = PINNED / "int-mc-ts-pipeline.out"
# A multiplicative datum over another nerve than octahedron-hbar.json's: the
# exp-add image of ADDITIVE, which the test writes under its tmp_path.
EXPONENTIATED = Path("exp-add-ts-pipeline.json")


@pytest.mark.parametrize(
    "argv, edit, message",
    [
        (["check-mdd", DATA / "octahedron-hbar.json"], lambda obj: obj.update(kind="lie"),
         "kind must be 'mdd' or 'add'"),
        (["check-add", ADDITIVE], lambda obj: obj.pop("kind"), "kind must be 'mdd' or 'add'"),
        (["check-mdd", ADDITIVE], None, "check-mdd expects a multiplicative descent datum"),
        (["obstruction", ADDITIVE], None, "obstruction expects a multiplicative descent datum"),
        (["check-add", DATA / "octahedron-hbar.json"], None, "check-add expects an additive descent datum"),
        (["exp-add", DATA / "octahedron-hbar.json"], None, "exp-add expects an additive descent datum"),
        (["equiv", ADDITIVE, DATA / "octahedron-hbar.json"], None, "equiv needs two data of the same kind"),
        (["obstruction", EXPONENTIATED, "--against", ADDITIVE], None,
         "obstruction --against expects a multiplicative descent datum"),
        (["obstruction", DATA / "octahedron-hbar.json", "--against", EXPONENTIATED], None,
         "data over different nerves/flavors/parameter algebras"),
        (["equiv", DATA / "octahedron-hbar.json", EXPONENTIATED], None,
         "data over different nerves/flavors/parameter algebras"),
    ],
    ids=["kind-unknown", "kind-missing", "check-mdd-on-add", "obstruction-on-add",
         "check-add-on-mdd", "exp-add-on-mdd", "equiv-across-kinds", "obstruction-against-add",
         "obstruction-against-other-nerve", "equiv-across-nerves"],
)
def test_cli_descent_datum_of_the_wrong_kind(tmp_path, capsys, argv, edit, message):
    if EXPONENTIATED in argv:
        assert main(["exp-add", str(ADDITIVE), "--out", str(tmp_path / EXPONENTIATED)]) == 0
        argv = [tmp_path / a if a == EXPONENTIATED else a for a in argv]
    command, first, *rest = argv
    if edit is not None:
        obj = json.loads(first.read_text(encoding="utf-8"))
        edit(obj)
        first = tmp_path / "datum.json"
        first.write_text(json.dumps(obj), encoding="utf-8")
    assert main([command, str(first), *map(str, rest)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("kind", ["mdd", "add"])
def test_cli_octahedron_datum_of_either_kind_loads(tmp_path, kind):
    # the unedited bases of the mistyped-section cases are valid input
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(_octahedron_datum(kind)), encoding="utf-8")
    assert _run([f"check-{kind}", str(path)])[0] == 0


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("quantize", lambda obj: obj.update(bivector=5), "bivector must be an expression string"),
        ("quantize", lambda obj: obj.pop("bivector"), "bivector must be an expression string"),
        ("star-table", lambda obj: obj.update(kind="star", beta=7), "beta must be an expression string"),
        ("quantize", lambda obj: obj.update(bivector="hbar * x*dx"),
         "bivector expression must have polyvector degree 1"),
        ("star-table", lambda obj: obj.update(kind="star", beta="hbar * x"),
         "beta expression must have cochain degree 1"),
        ("star-table", lambda obj: obj.update(kind="star", schema=2), "schema must be 1"),
        ("quantize", lambda obj: obj.update(bivector="hbar*d[1,]"),
         "slot d[1,] needs comma-separated integers"),
        ("star-table", lambda obj: obj.update(kind="star", beta="hbar*d[,]⊗d[0,1,0]"),
         "slot d[,] needs comma-separated integers"),
        ("star-table", lambda obj: obj.update(kind="star", beta="hbar*d[1 0 0]⊗d[0,1,0]"),
         "slot d[1 0 0] needs comma-separated integers"),
        ("quantize", lambda obj: obj.update(bivector="hbar*(dx^dy + x)"),
         "cannot add terms of degrees 1 and -1"),
        ("star-table", lambda obj: obj.update(bivector="hbar*x/(x+1)*dx^dy"),
         "cannot divide: element x + 1 is not invertible against the declared denominators"),
        ("quantize", lambda obj: obj.update(bivector="hbar*dx*(dy^dz)"),
         "a parenthesized sum multiplies only scalar factors"),
        ("quantize", lambda obj: obj["params"].update(order=True), "params.order must be >= 1"),
        ("star-table", lambda obj: obj.update(kind="star", schema=True), "schema must be 1"),
        ("quantize", lambda obj: obj.update(schema=1.0), "schema must be 1"),
        ("quantize", lambda obj: obj["params"].update(extra_relations=[[-1]]),
         "params.extra_relations entries need one exponent >= 0 per generator"),
        ("quantize", lambda obj: obj["params"].update(extra_relations=[[1, 2]]),
         "params.extra_relations entries need one exponent >= 0 per generator"),
        ("quantize", lambda obj: obj["params"].update(extra_relations=[[0]]),
         "params.extra_relations entries need one exponent >= 0 per generator, not all 0"),
        ("quantize", lambda obj: obj["params"].update(gens=["hbar", "hbar"]), "params.gens must be distinct"),
    ],
    ids=["bivector-int", "bivector-missing", "beta-int", "bivector-degree-0", "beta-degree-minus-1",
         "star-schema-2", "slot-trailing-comma", "slot-empty-entries", "slot-no-commas",
         "mixed-degree-sum", "undeclared-denominator", "direction-times-sum", "order-true",
         "star-schema-true", "schema-float", "extra-relation-negative", "extra-relation-too-long",
         "extra-relation-zero", "gens-repeated"],
)
def test_cli_mistyped_poisson_input(tmp_path, capsys, command, edit, message):
    obj = json.loads((DATA / "so3.json").read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


@pytest.mark.parametrize("order", ["0", "-1"])
def test_cli_quantize_order_below_one_is_an_input_error(capsys, order):
    assert main(["quantize", str(DATA / "so3.json"), "--order", order]) == 2
    assert capsys.readouterr().err == "input error: --order must be >= 1\n"


# Random token strings over the expression alphabet: parsing returns an
# element or raises FormatError, never another exception, and a nonzero
# element parses back from its rendering (a zero renders as "0" of degree
# -1).  Numbers are single digits up to 3, so nested powers stay small; huge
# exponents stay untested on purpose.
_TOKENS = [
    "0", "1", "2", "3", "x", "y", "hbar", "q", "dx", "dy", "d[1,0]", "d[0,1]", "d[2,0]",
    "d[1]", "d[1,]", "d[,]", "d[1 0]", "+", "-", "*", "/", "^", "(", ")", "⊗", "@",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=25), st.sampled_from(["polyvec", "polydiff"]))
def test_parse_element_raises_only_format_errors(tokens, kind):
    chart = ChartAlgebra(("x", "y"), (Poly.var(("x", "y"), "x"),))
    ctx = ExprContext(param_algebra_truncate(["hbar"], 2), chart, kind)
    try:
        elt = parse_element(ctx, " ".join(tokens))
    except FormatError:
        return
    assert isinstance(elt, DGLAElement)
    assert elt.is_zero() or parse_element(ctx, elt.render()) == elt


def _edit_face(label, **chart):
    return lambda obj: obj["nerve"]["faces"][label].update(chart)


def _edit_restriction(key, **spec):
    return lambda nerve: nerve["restrictions"][key].update(spec)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["params"].update(gens=[5]), "params.gens must be a nonempty list of strings"),
        (lambda obj: obj["params"].update(extra_relations=5),
         "params.extra_relations must be a list of exponent lists"),
        (lambda obj: obj["params"].update(extra_relations=[5]),
         "params.extra_relations must be a list of exponent lists"),
        (lambda obj: obj["params"].update(extra_relations=[["x"]]),
         "params.extra_relations must be a list of exponent lists"),
        (_edit_face("U0", variables=5), "chart variables must be a list of strings"),
        (_edit_face("U0", denominators=5), "chart denominators must be a list of expression strings"),
        (_edit_face("U0", denominators=[5]), "chart denominators must be a list of expression strings"),
        (lambda obj: obj["nerve"].update(restrictions=[1]), "nerve.restrictions must be an object"),
        (lambda obj: obj["nerve"]["restrictions"].update({"U0 -> U0,U2": 5}),
         "restriction 'U0 -> U0,U2' must be an object"),
        (lambda obj: obj["nerve"]["restrictions"].update({"U0 -> U0,U1": {"images": {}}}),
         "restriction 'U0 -> U0,U1' names a face absent from nerve.faces"),
        (lambda obj: obj.pop("nerve"), "nerve must be an object"),
        (lambda obj: obj.update(nerve=5), "nerve must be an object"),
        # JSON true is no integer, though Python reads it as 1
        (lambda obj: obj["params"].update(order=True), "params.order must be >= 1"),
        (lambda obj: obj["params"].update(extra_relations=[[True]]),
         "params.extra_relations must be a list of exponent lists"),
        (lambda obj: obj.update(schema=True), "descent datum: schema must be 1"),
        (lambda obj: obj["nerve"].update(schema=1.0), "nerve: schema must be 1"),
        (lambda obj: obj.update(triples={"U0,U2,U4": "hbar * 1", "U0, U2, U4": "hbar * 2"}),
         "labels 'U0, U2, U4' and 'U0,U2,U4' name the same face"),
    ],
    ids=["gens-int", "extra-relations-int", "extra-relation-int", "extra-relation-str",
         "variables-int", "denominators-int", "denominator-int", "restrictions-list",
         "restriction-int", "restriction-absent-face", "nerve-missing", "nerve-int",
         "order-true", "extra-relation-true", "schema-true", "nerve-schema-float",
         "triple-labelled-twice"],
)
def test_cli_mistyped_params_or_nerve(tmp_path, capsys, edit, message):
    obj = _octahedron_datum("mdd")
    edit(obj)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check-mdd", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_restriction("U0 -> U0,U1", images={"x": 3}),
         "restriction 'U0 -> U0,U1': images must map variables to expression strings"),
        (_edit_restriction("U0 -> U0,U1", derivations={"x": 3}),
         "restriction 'U0 -> U0,U1': derivations must map variables to expression strings"),
        (_edit_restriction("U0 -> U0,U1", derivations={}),
         "restriction 'U0 -> U0,U1': missing derivation of x"),
        (_edit_restriction("U0 -> U0,U1", derivations=["dx"]),
         "restriction 'U0 -> U0,U1': derivations must map variables to expression strings"),
        (lambda nerve: nerve.update(indices=[{}, "U1"]), "nerve.indices must be a nonempty list of strings"),
        (lambda nerve: nerve.update(indices=["U0", [1]]), "nerve.indices must be a nonempty list of strings"),
        (lambda nerve: nerve.update(schema=True), "nerve: schema must be 1"),
        (lambda nerve: nerve.update(schema=1.0), "nerve: schema must be 1"),
        (lambda nerve: nerve.update(indices=["U0", "U0"]), "nerve.indices must be distinct"),
        (lambda nerve: nerve["faces"].update({"U0 ": nerve["faces"]["U0"]}),
         "labels 'U0' and 'U0 ' name the same face"),
        (lambda nerve: nerve["restrictions"].update({"U0->U0,U1": nerve["restrictions"]["U0 -> U0,U1"]}),
         "restriction 'U0->U0,U1' names the faces of another key"),
        (_edit_restriction("U1 -> U0,U1", images={"y": "x"}),
         "derivation transport violates the chain rule"),
    ],
    ids=["image-int", "derivation-int", "derivation-missing", "derivations-list",
         "index-object", "index-list", "schema-true", "schema-float", "index-repeated",
         "face-labelled-twice", "restriction-keyed-twice", "image-breaks-chain-rule"],
)
def test_cli_mistyped_restriction_in_nerve(tmp_path, capsys, edit, message):
    obj = json.loads((DATA / "line-cover.json").read_text(encoding="utf-8"))
    edit(obj)
    path = tmp_path / "nerve.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["cohomology", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


@pytest.mark.parametrize(
    "chart, message",
    [
        ({"variables": ["x", "x"]}, "chart variables must be distinct"),
        ({"denominators": ["0"]}, "chart denominator '0' is zero"),
    ],
    ids=["variables-repeated", "denominator-zero"],
)
def test_cli_malformed_chart_in_nerve(tmp_path, capsys, chart, message):
    obj = json.loads((DATA / "line-cover.json").read_text(encoding="utf-8"))
    obj["faces"]["U0"].update(chart)
    path = tmp_path / "nerve.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["cohomology", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")


def test_cli_exp_add_int_mc_pipeline(tmp_path, rng):
    nerve = simplex_nerve(3)
    ts_obj = {
        "schema": 1,
        "kind": "ts",
        "flavor": "poisson",
        "params": {"gens": ["hbar"], "order": 2},
        "nerve": render_nerve(nerve),
        "whitney": [
            {"q": 0, "values": {f"U{i}": "hbar * (dx^dy)" for i in range(3)}}
        ],
        "gauge": [
            {"q": 0, "values": {"U0": "hbar * (x*dx)", "U1": "hbar * (y*dy)", "U2": "hbar * (x*dy)"}},
            {"q": 1, "values": {"U0,U1": "hbar * (x)", "U0,U2": "hbar * (y)", "U1,U2": "hbar * (2*x*y)"}},
        ],
    }
    ts_path = tmp_path / "ts.json"
    ts_path.write_text(dumps(ts_obj), encoding="utf-8")
    add_path = tmp_path / "add.json"
    code, _ = _run(["int-mc", str(ts_path), "--out", str(add_path)])
    assert code == 0
    code, _ = _run(["check-add", str(add_path)])
    assert code == 0
    mdd_path = tmp_path / "mdd.json"
    code, _ = _run(["exp-add", str(add_path), "--out", str(mdd_path)])
    assert code == 0
    code, _ = _run(["check-mdd", str(mdd_path)])
    assert code == 0
    # equiv of a datum with itself succeeds
    code, out = _run(["equiv", str(mdd_path), str(mdd_path)])
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_cli_cohomology(tmp_path):
    path = tmp_path / "nerve.json"
    path.write_text(dumps(render_nerve(octahedron_nerve())), encoding="utf-8")
    code, out = _run(["cohomology", str(path)])
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 1]


def test_cli_selftest():
    code, out = _run(["selftest", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["ok"] is True
