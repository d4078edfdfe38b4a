"""Per-layer counters for the traced run.

The tracer wraps the library's public functions, and the payload-level
brackets and differentials that its elements reach, from outside the
library: it rebinds every module attribute and class attribute that holds
one of them, so calls the library makes into its own lower layers are seen
too.  ``uninstall`` puts the originals back.  For each wrapped function it
records calls and self time (duration minus the time of wrapped calls inside
it), on the program clock, so reference slices are left out.

``fraction.created`` counts ``Fraction`` objects created inside wrapped
calls; the benchmark's own checking code runs outside them.  A hook that
the library no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import sys
from fractions import Fraction

# metric name -> (module, attribute path); every one reports .calls and .self_s
TIMED = {
    "exactalg.solve_linear": ("starcover.exactalg", "solve_linear"),
    "dgla.bracket": ("starcover.dgla", "DGLAElement.bracket"),
    "dgla.d": ("starcover.dgla", "DGLAElement.d"),
    "dgla.gauge_act": ("starcover.dgla", "gauge_act"),
    "dgla.bch": ("starcover.dgla", "bch"),
    "dgla.mc_check": ("starcover.dgla", "mc_check"),
    "polyvec.schouten": ("starcover.polyvec", "PolyvecCarrier.bracket"),
    "polydiff.gerstenhaber": ("starcover.polydiff", "PolydiffCarrier.bracket"),
    "polydiff.hochschild_d": ("starcover.polydiff", "PolydiffCarrier.d"),
    "polydiff.solve_d_equation": ("starcover.polydiff", "solve_d_equation"),
    "polydiff.associativity_oracle": ("starcover.polydiff", "associativity_oracle"),
    "polydiff.quantize_affine_order2": ("starcover.polydiff", "quantize_affine_order2"),
    "polydiff.solve_gauge": ("starcover.polydiff", "solve_gauge"),
    "simplex.simplex_integrate": ("starcover.simplex", "simplex_integrate"),
    "cechnerve.cech_cohomology": ("starcover.cechnerve", "cech_cohomology"),
    "thomsullivan.validate_compatibility": ("starcover.thomsullivan", "validate_compatibility"),
    "thomsullivan.whitney": ("starcover.thomsullivan", "whitney"),
    "thomsullivan.integrate_component": ("starcover.thomsullivan", "integrate_component"),
    "descent.int_mc": ("starcover.descent", "int_mc"),
    "descent.exp_add": ("starcover.descent", "exp_add"),
    "descent.check_add": ("starcover.descent", "check_add"),
    "descent.check_mdd": ("starcover.descent", "check_mdd"),
    "descent.equiv_solve": ("starcover.descent", "equiv_solve"),
    "descent.obstruction": ("starcover.descent", "obstruction"),
    "descent.mdd_gauge": ("starcover.descent", "mdd_gauge"),
    "formats.render_descent": ("starcover.formats", "render_descent"),
    "formats.load_descent": ("starcover.formats", "load_descent"),
}
# one Newton pass of equiv_solve solves one Jacobian system
PASSES = ("descent.equiv_solve.passes", "starcover.descent", "_JacobianSystem.solve")
SOLVE_SIZES = ("rows", "cols", "nonzeros", "inconsistent")


def metric_units() -> dict:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for field in SOLVE_SIZES:
        units[f"exactalg.solve_linear.{field}"] = "count"
    units["exactalg.fraction.created"] = "count"
    units[PASSES[0]] = "count"
    units["trace.overhead_pct"] = "%"
    return units


def _owner(path: str):
    module_name, attr = path
    owner = importlib.import_module(module_name)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.calls = {name: 0 for name in TIMED}
        self.self_s = {name: 0.0 for name in TIMED}
        self.sizes = {field: 0 for field in SOLVE_SIZES}
        self.passes = 0
        self.fractions = 0
        self._stack: list[float] = []  # wrapped-child seconds per open call
        self._restore: list = []  # (namespace, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _timed(self, name: str, fn):
        tracer = self
        now = self.clock.now
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = now()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                inner = now() - start
                children = stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += inner - children
            if name == "exactalg.solve_linear":
                tracer._solve_sizes(args, result)
            if stack:  # the parent's self time leaves out this call and its bookkeeping
                stack[-1] += now() - start
            return result

        return wrapper

    def _solve_sizes(self, args, result) -> None:
        matrix = args[0]
        self.sizes["rows"] += len(matrix)
        self.sizes["cols"] += len(matrix[0]) if matrix else 0
        self.sizes["nonzeros"] += sum(1 for row in matrix for v in row if v)
        self.sizes["inconsistent"] += 0 if result.consistent else 1

    def _counted(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.passes += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, path, make) -> None:
        try:
            owner, attr = _owner(path)
            original = owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            print(f"trace: {path[0]}.{path[1]} not found; its metrics read 0", file=sys.stderr)
            return
        wrapper = make(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in [m for n, m in sys.modules.items() if n == "starcover" or n.startswith("starcover.")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        for name, path in TIMED.items():
            self._rebind(path, lambda fn, name=name: self._timed(name, fn))
        self._rebind(PASSES[1:], self._counted)
        original_new = Fraction.__dict__["__new__"]
        new = original_new.__func__ if isinstance(original_new, staticmethod) else original_new
        tracer, clock, stack = self, self.clock, self._stack

        def counting_new(cls, *args, **kwargs):
            if stack and not clock.in_slice:
                tracer.fractions += 1
            return new(cls, *args, **kwargs)

        self._restore.append((Fraction, "__new__", original_new))
        Fraction.__new__ = staticmethod(counting_new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def metrics(self, factor: float) -> dict:
        """Counts, and self times in nominal seconds (``factor`` converts
        program seconds)."""
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name] * factor
        for field, value in self.sizes.items():
            out[f"exactalg.solve_linear.{field}"] = value
        out["exactalg.fraction.created"] = self.fractions
        out[PASSES[0]] = self.passes
        return out
