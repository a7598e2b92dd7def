"""Per-layer call counter for dpk, installed by identity replacement.

dpk modules bind library functions directly (``from .core import align``),
so patching one module attribute would miss most calls.  ``Tracer.install``
takes each target function object and rebinds *every* name that refers to
that same object in every loaded ``dpk`` module (looked up through
``sys.modules``; ``from dpk import generate`` yields the function, not the
module), plus the class attribute for methods.  LAPACK kernels are wrapped
by attribute on ``numpy.linalg`` and ``scipy.linalg``, since several dpk
modules call ``np.linalg`` directly instead of going through ``dpk.linalg``.

Kernel calls count only when made from dpk code.  Each wrapper counts calls
and raised exceptions and accumulates self time: the call's inclusive time
minus the inclusive time of wrapped calls nested inside it.  ``uninstall`` restores every binding.
"""

import functools
import sys
import time

KERNELS = ("svd", "eigh", "eigvalsh", "eigvals", "inv", "schur")

# (layer, module, attribute path) of every traced dpk function.
TARGETS = (
    ("linalg", "dpk.linalg", "svdvals"),
    ("linalg", "dpk.linalg", "eigh_sorted"),
    ("linalg", "dpk.linalg", "expi_hermitian"),
    ("linalg", "dpk.linalg", "log_unitary_matrix"),
    ("linalg", "dpk.linalg", "polar_unitary"),
    ("linalg", "dpk.linalg", "dedup_complex"),
    ("core", "dpk.core", "EopOperator.__init__"),
    ("core", "dpk.core", "EopOperator.expand"),
    ("core", "dpk.core", "Diagonal.expand"),
    ("core", "dpk.core", "align"),
    ("core", "dpk.core", "operator_norm"),
    ("core", "dpk.core", "spectrum"),
    ("core", "dpk.core", "canonical_decompose"),
    ("factor", "dpk.factor", "require_unitary"),
    ("factor", "dpk.factor", "exp_ih"),
    ("factor", "dpk.factor", "log_unitary"),
    ("factor", "dpk.factor", "unitary_factorize"),
    ("factor", "dpk.factor", "porta_recht"),
    ("fredholm", "dpk.fredholm", "is_invertible"),
    ("fredholm", "dpk.fredholm", "fredholm_data"),
    ("fredholm", "dpk.fredholm", "invertible_approx"),
    ("quotient", "dpk.quotient", "quotient_class"),
    ("quotient", "dpk.quotient", "character_eval"),
    ("autos", "dpk.autos", "stampfli_derivation_norm"),
    ("autos", "dpk.autos", "normal_form"),
    ("autos", "dpk.autos", "apply_automorphism"),
    ("autos", "dpk.autos", "is_dpk_automorphism"),
    ("autos", "dpk.autos", "match_finite_spectrum_conjugation"),
    ("projections", "dpk.projections", "ModelProjection.__init__"),
    ("projections", "dpk.projections", "pair_index"),
    ("projections", "dpk.projections", "rank_nullity_conjugacy"),
    ("projections", "dpk.projections", "minimal_geodesic"),
    ("projections", "dpk.projections", "conjugating_exponential"),
    ("projections", "dpk.projections", "zero_index_diagonal"),
    ("topology", "dpk.topology", "UnitaryLoop.__init__"),
    ("topology", "dpk.topology", "loop_winding"),
    ("topology", "dpk.topology", "bundle_section"),
    ("topology", "dpk.topology", "k0_class"),
    ("serial", "dpk.serial", "load_operator"),
    ("serial", "dpk.serial", "dump_operator"),
    ("oracles", "dpk.oracles", "chebyshev_radius_of_spectrum"),
    ("oracles", "dpk.oracles", "dense_norm"),
    ("suites", "dpk.suites", "run_suite"),
)

# Functions that validate their input or can fail to converge; only these
# report an error count.
RAISING = {
    "core.EopOperator.__init__", "core.align", "core.canonical_decompose",
    "factor.require_unitary", "factor.log_unitary", "factor.unitary_factorize",
    "factor.porta_recht", "fredholm.invertible_approx", "quotient.quotient_class",
    "quotient.character_eval", "autos.normal_form", "autos.is_dpk_automorphism",
    "autos.match_finite_spectrum_conjugation", "projections.ModelProjection.__init__",
    "projections.pair_index", "projections.rank_nullity_conjugacy",
    "projections.minimal_geodesic", "projections.conjugating_exponential",
    "projections.zero_index_diagonal", "topology.UnitaryLoop.__init__",
    "topology.loop_winding", "topology.bundle_section", "serial.load_operator",
}
RUN_SUITE = "suites.run_suite"
STAMPFLI = "autos.stampfli_derivation_norm"
EXPANDS = ("core.EopOperator.expand", "core.Diagonal.expand")


class Stat:
    __slots__ = ("calls", "self_s", "errors", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats = {f"kernel.{k}": Stat() for k in KERNELS}
        self.stats.update({f"{layer}.{attr}": Stat() for layer, _, attr in TARGETS})
        self.cells_in = 0
        self.expand_noops = 0
        self.svd_in_stampfli = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, pre=None):
        stat = self.stats[name]
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            nested = [0.0]
            stack.append(nested)
            stat.active += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = perf() - t0
                stat.active -= 1
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - nested[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Point every dpk module name bound to ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "dpk" or modname.startswith("dpk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _wrap_kernel(self, name, fn):
        """Kernel wrapper that counts only calls made from dpk code, so the
        benchmark's own numpy checks stay out of the figures."""
        traced = self._wrap(f"kernel.{name}", fn)
        stampfli = self.stats[STAMPFLI]
        getframe = sys._getframe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = getframe(1).f_globals.get("__name__", "")
            if not (caller == "dpk" or caller.startswith("dpk.")):
                return fn(*args, **kwargs)
            if args:
                self.cells_in += getattr(args[0], "size", 0)
            if name == "svd" and stampfli.active:
                self.svd_in_stampfli += 1
            return traced(*args, **kwargs)

        return wrapper

    def _expand_pre(self, args):
        # expand(self, m_new, p_new) is a no-op when the grid is unchanged.
        if len(args) == 3 and (args[1], args[2]) == (args[0].m, args[0].p):
            self.expand_noops += 1

    def install(self):
        import numpy.linalg
        import scipy.linalg

        for mod in (numpy.linalg, scipy.linalg):
            for k in KERNELS:
                original = mod.__dict__.get(k)
                if original is None:
                    continue
                wrapper = self._wrap_kernel(k, original)
                self._set(mod, k, wrapper)
                self._rebind(original, wrapper)
        for layer, modname, path in TARGETS:
            owner = sys.modules.get(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue  # the function no longer exists; it reports zero calls
            original = vars(owner)[attr]
            name = f"{layer}.{path}"
            wrapper = self._wrap(name, original, self._expand_pre if name in EXPANDS else None)
            if cls_path:
                self._set(owner, attr, wrapper)
            self._rebind(original, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self):
        """Per-layer metrics: calls, self time in ms and (where the function
        can raise) errors per function; only self time for run_suite."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.self_ms"] = (st.self_s * 1e3, "ms")
            if name != RUN_SUITE:
                out[f"{name}.calls"] = (st.calls, "count")
            if name in RAISING:
                out[f"{name}.errors"] = (st.errors, "count")
        out["kernel.cells_in"] = (self.cells_in, "count")
        expands = sum(self.stats[n].calls for n in EXPANDS)
        out["core.expand.noop_ratio"] = (self.expand_noops / expands if expands else 0.0, "ratio")
        runs = self.stats[STAMPFLI].calls
        out[f"{STAMPFLI}.svd_per_call"] = (self.svd_in_stampfli / runs if runs else 0.0,
                                           "count/call")
        return out
