"""Batch command-line front end.

Commands: check-mdd, check-add, exp-add, int-mc, equiv, obstruction,
quantize, star-table, cohomology, selftest.

Exit codes: 0 = pass/constructed, 1 = mathematical failure (violation,
obstruction, non-equivalence, MC failure), 2 = input/schema error.  Output is
deterministic byte-for-byte for fixed inputs and options.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactalg import AlgebraError
from .params import param_algebra_truncate
from .dgla import MCCheckError, mc_check, MCElement, require_mc
from . import polyvec as pv
from . import polydiff as pd
from .cechnerve import cech_cohomology
from .descent import (
    AddDescentDatum,
    MultDescentDatum,
    TwistedTransformation,
    check_add,
    check_mdd,
    equiv_solve,
    exp_add,
    int_mc,
    obstruction,
)
from . import formats
from .formats import FormatError, dumps
from . import selftest as selftest_mod


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: the top level must be a JSON object, not {type(obj).__name__}")
    return obj


def _emit(args, report: dict, text: str) -> None:
    if args.format == "json":
        payload = dumps(report)
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _check_report_dict(rep) -> dict:
    return {
        "ok": rep.ok,
        "violations": [
            {
                "condition": v.condition,
                "face": list(v.face),
                "order": v.order,
                "residue": v.residue_render,
            }
            for v in sorted(rep.violations, key=lambda v: (v.order, v.condition, str(v.face)))
        ],
    }


def _load_datum(args, cls, option="input"):
    """The descent datum of ``args.<option>``, which must be of the kind ``cls``."""
    datum = formats.load_descent(_load_json(getattr(args, option)))
    if not isinstance(datum, cls):
        name = args.command if option == "input" else f"{args.command} --{option}"
        raise FormatError(f"{name} expects {cls.phrase} descent datum")
    return datum


def _require_same_base(a, b) -> None:
    """Input error unless the data live over the same nerve, flavour and
    parameter algebra (equiv_solve raises AlgebraError for library callers)."""
    if (a.nerve, a.flavor, a.algebra) != (b.nerve, b.flavor, b.algebra):
        raise FormatError("data over different nerves/flavors/parameter algebras")


def cmd_check_mdd(args) -> int:
    datum = _load_datum(args, MultDescentDatum)
    rep = check_mdd(datum, args.cert_degree)
    _emit(args, {"command": "check-mdd", **_check_report_dict(rep)},
          "check-mdd: " + rep.render())
    return 0 if rep.ok else 1


def cmd_check_add(args) -> int:
    datum = _load_datum(args, AddDescentDatum)
    rep = check_add(datum)
    _emit(args, {"command": "check-add", **_check_report_dict(rep)},
          "check-add: " + rep.render())
    return 0 if rep.ok else 1


def cmd_exp_add(args) -> int:
    datum = _load_datum(args, AddDescentDatum)
    mdd = exp_add(datum, cert_degree=args.cert_degree)
    out = formats.render_descent(mdd)
    _emit(args, out, dumps(out))
    return 0


def cmd_int_mc(args) -> int:
    handle, beta = formats.load_ts_element(_load_json(args.input))
    chk = mc_check(beta)
    if not isinstance(chk, MCElement):
        _emit(args, {"command": "int-mc", "ok": False, "mc_violation": chk.render()},
              "int-mc: " + chk.render())
        return 1
    add = int_mc(handle, beta)
    out = formats.render_descent(add)
    _emit(args, out, dumps(out))
    return 0


def _transformation_report(command: str, verdict: str, nerve, result: TwistedTransformation) -> dict:
    def labelled(parts):
        return {nerve.label(f): v.render() for f, v in sorted(parts.items()) if not v.is_zero()}

    return {"command": command, verdict: True, "eta": labelled(result.eta), "eps": labelled(result.eps)}


def cmd_equiv(args) -> int:
    left = formats.load_descent(_load_json(args.left))
    right = formats.load_descent(_load_json(args.right))
    if type(left) is not type(right):
        raise FormatError("equiv needs two data of the same kind")
    _require_same_base(left, right)
    result = equiv_solve(left, right)
    if isinstance(result, TwistedTransformation):
        report = _transformation_report("equiv", "equivalent", left.nerve, result)
        _emit(args, report, "equivalent\n" + dumps(report))
        return 0
    report = {
        "command": "equiv",
        "equivalent": False,
        "order": result.order,
        "class_is_zero": result.class_is_zero,
        "cocycle": {str(k): v for k, v in sorted(result.cocycle.items())},
    }
    _emit(args, report, "not equivalent: " + result.render())
    return 1


def cmd_obstruction(args) -> int:
    datum = _load_datum(args, MultDescentDatum)
    against = None
    if args.against:
        against = _load_datum(args, MultDescentDatum, "against")
        _require_same_base(datum, against)
    result = obstruction(datum, against)
    if isinstance(result, TwistedTransformation):
        report = _transformation_report("obstruction", "trivializable", datum.nerve, result)
        _emit(args, report, "trivializable\n" + dumps(report))
        return 0
    gens = datum.algebra.gens
    scale = gens[0] if gens else "hbar"
    report = {
        "command": "obstruction",
        "trivializable": False,
        "order": result.order,
        "class_is_zero": result.class_is_zero,
        "class": {False: f"[c]*{scale}", True: "coboundary", None: "undecided"}[result.class_is_zero],
        "cocycle": {str(k): v for k, v in sorted(result.cocycle.items())},
    }
    _emit(args, report, "really twisted (to the truncation order): " + result.render())
    return 1


def _load_params_and_chart(obj):
    if not formats.json_int(obj.get("schema"), 1, 1):
        raise FormatError("schema must be 1")
    return formats.load_params(obj.get("params")), formats.load_chart(obj.get("chart"))


def _load_bivector(obj, order=None):
    """The bivector of a Poisson input, over its parameter algebra truncated
    at ``order`` when given."""
    algebra, chart = _load_params_and_chart(obj)
    if order is not None:
        if order < 1:
            raise FormatError("--order must be >= 1")
        algebra = param_algebra_truncate(algebra.gens, order, algebra.extra_relations)
    ctx = formats.ExprContext(algebra, chart, "polyvec")
    return formats.load_expression(ctx, obj, "bivector", 1)


def cmd_quantize(args) -> int:
    elt = _load_bivector(_load_json(args.input), args.order)
    structure = pv.poisson_from_mc(require_mc(elt))
    star = pd.quantize_affine_order2(structure, args.cert_degree)
    table = _star_table(star, args.cert_degree or 2)
    report = {
        "command": "quantize",
        "beta": star.beta.element.render(),
        "first_order_bracket": {
            f"{{{a},{b}}}": v.render() for (a, b), v in sorted(pd.first_order_bracket(star).items())
        },
        "table": table,
    }
    text = ["quantize: beta = " + star.beta.element.render(), "star table:"]
    text += [f"  {k} = {v}" for k, v in sorted(table.items())]
    _emit(args, report, "\n".join(text))
    return 0


def _star_table(star, degree: int) -> dict:
    chart = star.carrier.chart
    monos = chart.monomials_up_to(degree)
    out = {}
    for a in monos:
        for b in monos:
            if a.numer.is_constant() or b.numer.is_constant():
                continue
            u = pd.function_element(star.carrier, star.algebra, a)
            v = pd.function_element(star.carrier, star.algebra, b)
            out[f"{a.render()} * {b.render()}"] = star.product(u, v).render()
    return out


def cmd_star_table(args) -> int:
    obj = _load_json(args.input)
    if obj.get("kind") == "star":
        algebra, chart = _load_params_and_chart(obj)
        ctx = formats.ExprContext(algebra, chart, "polydiff")
        beta = formats.load_expression(ctx, obj, "beta", 1)
        star = pd.star_from_mc(beta, args.cert_degree)
    else:
        elt = _load_bivector(obj)
        star = pd.quantize_affine_order2(pv.poisson_from_mc(require_mc(elt)), args.cert_degree)
    table = _star_table(star, args.cert_degree or 2)
    report = {"command": "star-table", "table": table}
    text = ["star table:"] + [f"  {k} = {v}" for k, v in sorted(table.items())]
    _emit(args, report, "\n".join(text))
    return 0


def cmd_cohomology(args) -> int:
    nerve = formats.load_nerve(_load_json(args.input))
    cx = cech_cohomology(nerve, args.degree_bound)
    betti = cx.betti()
    reps = {}
    for p in range(len(betti)):
        if betti[p] > 0 and p > 0:
            reps[str(p)] = [
                {nerve.label(f): [str(x) for x in c] for f, c in z.items()}
                for z in cx.representative_cocycles(p)
            ]
    report = {"command": "cohomology", "betti": betti, "representatives": reps}
    text = "betti: " + " ".join(f"H^{p}={b}" for p, b in enumerate(betti))
    _emit(args, report, text)
    return 0


def cmd_selftest(args) -> int:
    results = selftest_mod.run(seed=args.seed)
    ok = all(r["ok"] for r in results)
    report = {"command": "selftest", "seed": args.seed, "ok": ok, "checks": results}
    lines = [f"selftest (seed {args.seed}):"]
    lines += [f"  [{'PASS' if r['ok'] else 'FAIL'}] {r['name']}" for r in results]
    _emit(args, report, "\n".join(lines))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="starcover",
        description=(
            "Exact deformation-quantization descent calculus: star products, "
            "Poisson structures, Maurer-Cartan gauge theory and Cech descent "
            "data over combinatorial cover nerves."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)
    options = {
        "--order": dict(type=int, default=None, help="parameter truncation order"),
        "--cert-degree": dict(type=int, default=None, help="certificate degree D"),
        "--seed": dict(type=int, default=0, help="deterministic generator seed"),
        "--against": dict(default=None, help="compare against a given global datum"),
        "--degree-bound": dict(type=int, default=-1,
                               help="polynomial layer truncation; -1 = constant coefficients"),
        "--out": dict(default=None, help="write the report to a file"),
        "--format": dict(choices=("json", "text"), default="json"),
    }

    def command(name, fn, text, inputs, *flags):
        sp = sub.add_parser(name, help=text)
        for arg in inputs:
            sp.add_argument(arg)
        for flag in (*flags, "--out", "--format"):
            sp.add_argument(flag, **options[flag])
        sp.set_defaults(fn=fn)

    one = ("input",)
    command("check-mdd", cmd_check_mdd, "verify a multiplicative descent datum", one, "--cert-degree")
    command("check-add", cmd_check_add, "verify an additive descent datum", one)
    command("exp-add", cmd_exp_add, "exponentiate an additive datum to a multiplicative one", one,
            "--cert-degree")
    command("int-mc", cmd_int_mc, "integrate a Thom-Sullivan MC element to an additive datum", one)
    command("equiv", cmd_equiv, "decide twisted gauge equivalence of two data", ("left", "right"))
    command("obstruction", cmd_obstruction, "trivialize a datum or report its obstruction class",
            one, "--against")
    command("quantize", cmd_quantize, "order-2 quantization of a Poisson bivector", one,
            "--order", "--cert-degree")
    command("star-table", cmd_star_table, "multiplication table of a star product", one,
            "--cert-degree")
    command("cohomology", cmd_cohomology, "exact Cech cohomology of a nerve layer", one,
            "--degree-bound")
    command("selftest", cmd_selftest, "run the seeded property battery", (), "--seed")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except MCCheckError as exc:
        sys.stderr.write(f"mathematical failure: {exc}\n")
        return 1
    except AlgebraError as exc:
        sys.stderr.write(f"mathematical failure: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
