"""Spans and counts at the layer boundaries of one etalab CLI process.

The tracer wraps etalab's public functions from outside the package.
Methods are wrapped on their class.  A module-level function is replaced in
every loaded ``etalab.*`` namespace that binds the same object, since
modules copy it with ``from .x import f``.  Beneath the package it counts
calls into ``numpy.fft`` and ``numpy.linalg.svd``/``eigh``/``eigvalsh``,
and the ``scipy.integrate.quad`` calls made by ``etalab.eta`` (the
``eta.quad.*`` counts); quadratures elsewhere in the package, such as the
tail integrals of ``etalab.operators``, are not counted.

Spans (name, start, end, parent) stay in memory and are written out by
``dump``.  ``uninstall`` puts every wrapped object back.  The functions at
the bottom turn dumps into per-layer metrics and a span tree.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

clock = time.monotonic

#: module-level functions: (defining module, name, span)
FUNCTIONS = (
    ("etalab.group_algebra", "convolve", "group_algebra.convolve"),
    ("etalab.cyclic", "pair_phi_tr", "cyclic.pair_phi_tr"),
    ("etalab.cyclic", "connes_chern", "cyclic.connes_chern"),
    ("etalab.cyclic", "certify_cyclic_cocycle", "cyclic.certify"),
    ("etalab.cyclic", "max_cyclicity_violation", "cyclic.certify"),
    ("etalab.cyclic", "max_cocycle_violation", "cyclic.certify"),
    ("etalab.operators", "class_trace", "operators.class_trace"),
    ("etalab.eta", "eta_class", "eta.eta_class"),
    ("etalab.eta", "eta_higher", "eta.eta_higher"),
    ("etalab.eta", "tau_pair", "eta.tau_pair"),
    ("etalab.pairing", "boundary_identity", "pairing.boundary_identity"),
    ("etalab.pairing", "shipped_pairing_fixtures", "pairing.fixtures"),
)

_BACKENDS = (("FourierSymbolOperator", "fourier"),
             ("FiniteCoverOperator", "cover"),
             ("FreeConvolutionOperator", "free"))

#: methods wrapped on their class: (module, class, method, span, calls key)
METHODS = (
    ("etalab.groups", "GroupModel", "ball", "groups.ball", None),
    ("etalab.groups", "GroupModel", "sphere", "groups.ball", None),
    ("etalab.group_algebra", "AlgebraElement", "trace_norms",
     "group_algebra.trace_norms", None),
    ("etalab.group_algebra", "TensorElement", "trace_norms",
     "group_algebra.trace_norms", None),
    ("etalab.cyclic", "SeparableClassCochain", "pair_separable",
     "cyclic.pair_separable", None),
    ("etalab.pairing", "BoundaryLoop", "build", "pairing.loop_build", None),
    *(("etalab.operators", cls, "functional_calculus",
       "operators.functional_calculus",
       f"operators.functional_calculus.calls.{tag}")
      for cls, tag in _BACKENDS),
    *(("etalab.operators", cls, "gap_certificate",
       "operators.gap_certificate", None) for cls, _ in _BACKENDS),
)

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def _add(counts: dict, key: str, amount=1):
    counts[key] = counts.get(key, 0) + amount


def _integrand_root(func):
    """The one callable a quadrature integrand closes over, or the integrand.

    ``quad(lambda t: f(t).real)`` and ``quad(lambda t: f(t).imag)`` share
    ``f``, so their evaluations at one node count as one distinct node.  An
    integrand that closes over anything else is its own root.
    """
    cells = getattr(func, "__closure__", None) or ()
    if len(cells) == 1:
        try:
            inner = cells[0].cell_contents
        except ValueError:
            return func
        if callable(inner):
            return inner
    return func


class Tracer:
    """Spans and counts of one process; ``run_id`` tags its spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self._undo: list = []
        self._nodes: dict = {}

    # -- recording ----------------------------------------------------------

    def record(self, name: str, start: float, end: float):
        """A finished span under the innermost open one."""
        self.spans.append([name, start, end,
                           self.stack[-1] if self.stack else -1])

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._spanned(name, fn, name + ".calls")(*args, **kwargs)

    def _spanned(self, name: str, fn, calls: str, blocks: str | None = None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _add(counts, calls)
            if blocks is not None:
                _add(counts, blocks, len(args[0].coeffs))
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def _counted(self, fn, calls: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            _add(counts, calls)
            return fn(*args, **kwargs)
        return counted

    def _node_set(self, func) -> set:
        """Distinct nodes already asked of ``func`` inside the innermost
        open span.  The root callable is held so that its id stays unique
        while the span is open."""
        for scope in [s for s in self._nodes if s >= 0
                      and self.spans[s][2] != 0.0]:
            del self._nodes[scope]
        scope = self.stack[-1] if self.stack else -1
        root = _integrand_root(func)
        table = self._nodes.setdefault(scope, {})
        return table.setdefault(id(root), (root, set()))[1]

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr: str, value):
        original = vars(owner)[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, value)

    def _replace_everywhere(self, fn, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname == "etalab" or modname.startswith("etalab."):
                for attr, val in list(vars(module).items()):
                    if val is fn:
                        self._set(module, attr, wrapper)

    def install(self):
        """Wrap every boundary; etalab.cli must already be imported."""
        import numpy
        import scipy.integrate

        mods = sys.modules
        for modname, fname, span in FUNCTIONS:
            fn = getattr(mods[modname], fname)
            self._replace_everywhere(fn, self._spanned(span, fn,
                                                       span + ".calls"))
        for modname, clsname, meth, span, calls in METHODS:
            cls = getattr(mods[modname], clsname)
            raw = vars(cls)[meth]
            blocks = span + ".blocks" if meth == "trace_norms" else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._spanned(
                    span, raw.__func__, calls or span + ".calls", blocks))
            else:
                wrapped = self._spanned(span, raw, calls or span + ".calls",
                                        blocks)
            self._set(cls, meth, wrapped)
        groups = mods["etalab.groups"]
        for cls in vars(groups).values():
            if (isinstance(cls, type) and issubclass(cls, groups.GroupModel)
                    and "word_length" in vars(cls)):
                self._set(cls, "word_length", self._counted(
                    vars(cls)["word_length"], "groups.word_length.calls"))
        handlers = mods["etalab.cli"].HANDLERS
        for key, fn in list(handlers.items()):
            handlers[key] = self._spanned("cli.handler", fn,
                                          "cli.handler.calls")
            self._undo.append(functools.partial(handlers.__setitem__, key, fn))
        self._install_kernels(numpy, scipy.integrate)

    def _install_kernels(self, numpy, integrate):
        counts = self.counts
        for name in FFT_NAMES:
            fft = getattr(numpy.fft, name)

            def counted_fft(*args, _fft=fft, **kwargs):
                out = _fft(*args, **kwargs)
                _add(counts, "numpy.fft.calls")
                _add(counts, "numpy.fft.points", out.size)
                return out
            self._set(numpy.fft, name, functools.wraps(fft)(counted_fft))
        self._set(numpy.linalg, "svd",
                  self._counted(numpy.linalg.svd, "numpy.svd.calls"))
        for name in ("eigh", "eigvalsh"):
            eig = getattr(numpy.linalg, name)

            def counted_eig(a, *args, _eig=eig, **kwargs):
                shape = numpy.shape(a)
                _add(counts, "numpy.eig.calls")
                _add(counts, "numpy.eig.flops",
                     math.prod(shape[:-2]) * shape[-1] ** 3)
                return _eig(a, *args, **kwargs)
            self._set(numpy.linalg, name, functools.wraps(eig)(counted_eig))
        quad = integrate.quad

        def counted_quad(func, a, b, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "etalab.eta":
                return quad(func, a, b, *args, **kwargs)
            _add(counts, "eta.quad.calls")
            seen = self._node_set(func)

            def integrand(t, *rest):
                _add(counts, "eta.quad.evals")
                if t not in seen:
                    seen.add(t)
                    _add(counts, "eta.quad.nodes")
                return func(t, *rest)
            return quad(integrand, a, b, *args, **kwargs)
        self._set(integrate, "quad", functools.wraps(quad)(counted_quad))

    def uninstall(self):
        """Put back every object ``install`` replaced."""
        while self._undo:
            self._undo.pop()()
        self._nodes.clear()

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# metrics from dumps
# ---------------------------------------------------------------------------


def _durations(spans):
    """Per span: duration, self time, and whether it is outermost among
    spans of its name."""
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    outermost = []
    for name, _, _, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        outermost.append(parent < 0)
    return dur, [d - c for d, c in zip(dur, child)], outermost


def process_metrics(dump: dict) -> dict:
    """Per-layer totals of one process: counts as recorded, ``<span>.s``
    (outermost spans of the name), ``cli.import_s`` and ``cli.main.self_s``."""
    spans = dump["spans"]
    out = dict(dump["counts"])
    dur, self_time, outermost = _durations(spans)
    for i, (name, *_rest) in enumerate(spans):
        if name == "cli.import":
            _add(out, "cli.import_s", dur[i])
        elif name == "cli.main":
            _add(out, "cli.main.self_s", self_time[i])
        elif outermost[i]:
            _add(out, name + ".s", dur[i])
    return out


def pass_metrics(dumps: list) -> dict:
    """Per-layer metrics of one pass: the sum over its processes, plus
    ``eta.quad.node_reuse``, distinct nodes over integrand evaluations."""
    out: dict = {}
    for dump in dumps:
        for key, val in process_metrics(dump).items():
            _add(out, key, val)
    evals = out.get("eta.quad.evals", 0)
    out["eta.quad.node_reuse"] = out.get("eta.quad.nodes", 0) / evals \
        if evals else 1.0
    return out


def span_tree(dumps: list) -> dict:
    """Spans aggregated by their path from the root:
    ``"cli.main/cli.handler/..." -> [calls, total_s, self_s]``."""
    tree: dict = {}
    for dump in dumps:
        spans = dump["spans"]
        dur, self_time, _ = _durations(spans)
        paths = []
        for name, _, _, parent in spans:
            paths.append(name if parent < 0 else f"{paths[parent]}/{name}")
        for i, path in enumerate(paths):
            row = tree.setdefault(path, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += self_time[i]
    return tree
