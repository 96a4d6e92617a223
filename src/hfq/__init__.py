"""Exact arithmetic for Hankel-matrix kernels, additive character sums, and
short-interval representation variance over F_q[T].

Public names are imported from their modules (hfq.field, hfq.hankel, ...).
``import hfq`` loads no submodule; hfq.ctx_new loads hfq.field on first use."""

__version__ = "0.1.0"


def __getattr__(name):
    if name == "ctx_new":
        from .field import ctx_new

        return ctx_new
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
