"""Run the skewcmv CLI in this process with a span around every public library call.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <skewcmv CLI arguments>

Every function listed in the ``__all__`` of the library modules, plus the CLI
entry points, is replaced by a wrapper at every module attribute that binds it
(``cli`` imports ``estimate_Ln`` by name, ``lyapunov`` and ``cocycle`` each
bind ``verblunsky_orbit_batch``, and so on).  Each wrapper records one span
(layer, binding site, start, end, parent, thread, shape attributes) in memory.
The spans and the per-site hit counts are written to SPANS_JSON when the CLI
returns; the exit status is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time

import numpy as np

MODULES = ("model", "cmv", "cocycle", "lyapunov", "green", "localization", "cli")

# public function -> layer; a public function not listed here is traced as "<module>.other"
LAYER_OF = {
    "model": {
        "skew_shift_step": "model.orbit",
        "skew_shift_orbit": "model.orbit",
        "orbit_point": "model.orbit",
        "orbit_points": "model.orbit",
        "verblunsky_at": "model.orbit",
        "verblunsky_range": "model.orbit",
        "verblunsky_orbit_batch": "model.orbit",
        "diophantine_margin": "model.diophantine",
        "scheme_to_json": "model.serialize",
        "scheme_from_json": "model.serialize",
        "scheme_hash": "model.serialize",
    },
    "cmv": {
        "assemble_window": "cmv.assemble",
        "scheme_submatrix": "cmv.submatrix",
        "char_poly": "cmv.char_poly",
    },
    "cocycle": {
        "product_batch": "cocycle.product",
        "transfer_product": "cocycle.transfer",
        "transfer_via_determinants": "cocycle.detform",
    },
    "lyapunov": {
        "estimate_Ln": "lyapunov.estimate",
        "estimate_Ln_many": "lyapunov.estimate",
        "deviation_profile": "lyapunov.estimate",
        "multiscale_residual": "lyapunov.estimate",
        "positivity_margin": "lyapunov.estimate",
        "uniform_bound_check": "lyapunov.estimate",
    },
    "green": {
        "green_matrix": "green.solve",
        "green_entry_via_polys": "green.poly_entry",
        "davis_simon_gap": "green.davis_simon",
        "restriction_residual": "green.restriction",
        "tilde_boundary_values": "green.restriction",
    },
    "localization": {
        "window_spectrum": "localization.spectrum",
        "decay_fit": "localization.decay_fit",
        "localization_scan": "localization.scan",
        "finite_size_drift": "localization.scan",
    },
    # the CLI has no __all__: its entry points are listed here
    "cli": {
        "main": "cli",
        "config_from_doc": "cli",
        "run": "cli",
        "run_sweep": "cli",
        "_emit": "cli",
    },
}

# Called once per step or per lattice site inside a layer's kernel: a span
# each would cost more than the work it times, so they stay unwrapped.
UNWRAPPED = {"theta_block", "spectral_norms_2x2"}


# work-size attributes of one call, read from its bound arguments
SHAPE_ATTRS = {
    "verblunsky_orbit_batch": lambda a: {
        "n": int(a["n"]), "S": len(np.atleast_2d(a["phases"])),
        "points": int(a["n"]) * len(np.atleast_2d(a["phases"])),
    },
    "orbit_points": lambda a: {"points": len(a["js"])},
    "orbit_point": lambda a: {"points": 1},
    "product_batch": lambda a: dict(zip(("n", "S"), map(int, np.shape(np.atleast_2d(a["alphas"]))))),
    "assemble_window": lambda a: {"sites": int(a["interval"][1]) - int(a["interval"][0]) + 1},
    "scheme_submatrix": lambda a: {"sites": int(a["b"]) - int(a["a"]) + 1},
    "estimate_Ln": lambda a: {"z": 1},
    "estimate_Ln_many": lambda a: {"z": len(a["zs"])},
    "window_spectrum": lambda a: {"size": int(a["window"].size)},
    "localization_scan": lambda a: {"size": int(a["size"])},
}


class Tracer:
    """In-memory span recorder shared by all wrappers of one process."""

    def __init__(self):
        self.spans = []  # [layer, site, t0, t1, parent, thread, attrs]
        self.hits = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, layer: str, site: str):
        shape = SHAPE_ATTRS.get(fn.__name__)
        sig = inspect.signature(fn) if shape else None
        self.hits.setdefault(site, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = shape(sig.bind(*args, **kwargs).arguments) if shape else {}
            stack = self._stack()
            # a pool thread's first span is caused by the span the main thread has open
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
                self.hits[site] += 1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans[idx] = [layer, site, t0, t1, parent, threading.get_ident(), attrs]

        return traced

    def install(self) -> None:
        """Wrap every traced function at every skewcmv module attribute bound to it."""
        import skewcmv.cli  # noqa: F401  (imports every library module)

        layers = {}  # id(function) -> layer; the functions stay alive in their modules
        for mod_name in MODULES:
            mod = sys.modules[f"skewcmv.{mod_name}"]
            names = set(getattr(mod, "__all__", ())) | set(LAYER_OF[mod_name])
            for name in sorted(names - UNWRAPPED):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn):
                    layers[id(fn)] = LAYER_OF[mod_name].get(name, f"{mod_name}.other")
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "skewcmv" and not mod_name.startswith("skewcmv."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in layers:
                    site = f"{mod_name.removeprefix('skewcmv.')}.{attr}"
                    setattr(mod, attr, self.wrap(value, layers[id(value)], site))
        scheme_cls = sys.modules["skewcmv.model"].VerblunskyScheme
        scheme_cls.__post_init__ = self.wrap(
            scheme_cls.__post_init__, "model.scheme_build", "model.VerblunskyScheme.__post_init__"
        )


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <skewcmv arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    from skewcmv import cli

    try:
        status = cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "hits": tracer.hits}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
