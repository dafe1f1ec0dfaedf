"""Spans around calls into gaussbs, installed from outside the package.

``Tracer.install`` replaces the module attributes that the program looks up
at call time (``gaussbs.cli.evaluate_point``, ``gaussbs.fock.fock_beam_splitter``
and so on) with wrappers that open and close a span, and ``uninstall`` puts
the originals back.  A function imported into several modules is replaced
in every module that holds it, so calls are caught whichever module makes
them.  A layer function that a later version renames or removes is simply
not wrapped, and its metric reads 0.

Spans stay in memory.  As each span closes, its duration and its self time
(the duration minus the time its child spans cover) are added to per-name
totals; the raw spans, up to ``SPAN_CAP`` of them, are written out when the
run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = (
    "gaussbs",
    "gaussbs.states",
    "gaussbs.entanglement",
    "gaussbs.channels",
    "gaussbs.fock",
    "gaussbs.cli",
)

# (defining module, attribute, span name): each call is a timed span.
SPANS = (
    ("gaussbs.cli", "evaluate_point", "cli.evaluate"),
    ("gaussbs.cli", "write_records", "cli.write"),
    ("gaussbs.entanglement", "negativity_closed_form", "entanglement.closed_form"),
    ("gaussbs.entanglement", "critical_noise", "entanglement.critical_noise"),
    ("gaussbs.entanglement", "output_covariance", "entanglement.output_covariance"),
    ("gaussbs.entanglement", "pt_symplectic_spectrum", "entanglement.pt_spectrum"),
    ("gaussbs.entanglement", "log_negativity", "entanglement.log_negativity"),
    ("gaussbs.states", "apply_beam_splitter", "states.apply_beam_splitter"),
    ("gaussbs.states", "covariance_from_spec", "states.covariance_from_spec"),
    ("gaussbs.states", "symplectic_eigenvalues", "states.symplectic_eigenvalues"),
    ("gaussbs.fock", "compare_with_gaussian", "fock.compare"),
    ("gaussbs.fock", "fock_squeezed_thermal", "fock.squeezed_thermal"),
    ("gaussbs.fock", "fock_beam_splitter", "fock.beam_splitter"),
    ("gaussbs.fock", "_beam_splitter_sectors", "fock.sector_build"),
    ("gaussbs.fock", "_sector_conjugate", "fock.sector_conjugate"),
    ("gaussbs.fock", "fock_partial_transpose", "fock.partial_transpose"),
    # Everything fock_log_negativity does besides the partial transpose is
    # the parity-split eigensolve.
    ("gaussbs.fock", "fock_log_negativity", "fock.eigensolve"),
)

# Calls counted but not timed, so that their time stays in the caller's
# self time: closed_form_terms runs inside evaluate_point and inside
# negativity_closed_form, and a span per call would cost more than the call.
COUNTED = (("gaussbs.entanglement", "closed_form_terms", "entanglement.closed_form_terms"),)

# (defining module, class, method, span name).  CovMat2 validates itself in
# __post_init__, which the dataclass __init__ looks up on the class.
METHOD_SPANS = (("gaussbs.states", "CovMat2", "__post_init__", "states.covmat2_validation"),)

SPAN_CAP = 200_000


def _two_mode_bytes(args, kwargs):
    """Bytes of the complex W^2 x W^2 matrix fock_beam_splitter builds."""
    rho1 = args[0] if args else kwargs.get("rho1")
    return 16 * getattr(rho1, "dim", 0) ** 4


# span name -> (amount name, function of the call's arguments)
AMOUNTS = {"fock.beam_splitter": ("fock.matrix_bytes_computed", _two_mode_bytes)}


class Tracer:
    """Records spans in memory and accumulates self and total time per name."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.amounts = Counter()
        self.spans = []  # (span id, name, start, end, parent id, call id)
        self.dropped = 0
        self._span_cap = span_cap
        self._stack = []  # open spans: [span id, name, start, child time]
        self._next_id = 0
        self._call_id = -1
        self._restore = []

    def _open(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < self._span_cap:
            self.spans.append((span_id, name, start, end, parent, self._call_id))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def call(self, name: str):
        """Root span of one end-to-end call; its spans share one call id."""
        self._call_id += 1
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _timed(self, fn, name: str):
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if amount is not None:
                self.amounts[amount[0]] += amount[1](args, kwargs)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in MODULES]
        wrappers = [(m, a, self._timed, n) for m, a, n in SPANS]
        wrappers += [(m, a, self._counted, n) for m, a, n in COUNTED]
        for module_name, attr, make, name in wrappers:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = make(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for module_name, cls_name, method, name in METHOD_SPANS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._timed(original, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("span", "name", "start_s", "end_s", "parent", "call"))
            for span_id, name, start, end, parent, call in self.spans:
                writer.writerow((span_id, name, f"{start:.9f}", f"{end:.9f}", parent, call))
