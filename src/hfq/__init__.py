"""Exact arithmetic for Hankel-matrix kernels, additive character sums, and
short-interval representation variance over F_q[T].

The public names load on first use (PEP 562), so a command pays only for
the submodules it runs."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {  # home submodule -> the public names it defines
    "field": ("CycInt", "FieldCtx", "ctx_new"),
    "hankel": (
        "Analysis", "CharPolys", "Profile", "Seq", "analyze", "bijection_inverse", "bijection_map",
        "char_polys", "hankel_matrix", "kernel_basis", "odot", "profile", "rank",
        "reduction_profile", "reduction_strict_class", "toeplitz_mat",
    ),
    "census": ("census_enumerate", "census_formula", "census_formula_total"),
    "polyring": ("NEG_INF", "Poly", "gcd", "phi", "rad", "factor"),
    "charsum": ("variance_charsum",),
    "variance": (
        "ThmParams", "VarianceReport", "f_formula",
        "interval_sum", "kernel_sum_identity", "m_factor", "mean_formula", "s_count",
        "theorem_predict", "variance_bruteforce", "w_sum_identity",
    ),
    "analytic": ("PhiSumReport", "convergence_report", "phi_slope"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "checks", "cli", "errors", "fastpath"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
