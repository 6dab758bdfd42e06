"""Outside-in tracing of the library's layers.

The tracer wraps each layer's entry points from outside the package: it
rebinds module attributes and class methods, and nothing under ``src/``
changes.  A function that other modules imported by value (``from .x
import f``) is bound under several module attributes, and every one of
them is rebound.  Modules are looked up with ``importlib.import_module``,
because ``import nonassoc.cohomology as m`` binds the package-level
*function* ``cohomology``, not the module.

Spans are aggregated in memory per name: calls, inclusive seconds and
self seconds (a span's duration minus the wrapped calls made inside it
on the same thread).  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# Every wrapped entry point, named <module>.<attribute>.  _parallel_blocks
# is named after the module whose binding the caller used, so block
# assembly is attributed to identities or cohomology.
ENTRY_POINTS = (
    "fastrank.ModularFilter.filter_block",
    "fastrank.rref_int",
    "fastrank.nullspace_int",
    "fastrank._find_violators",
    "fastrank._exact_products",
    "identities._parallel_blocks",
    "cohomology._parallel_blocks",
    "identities._shape_tables",
    "identities.first_violation",
    "linalg.RankSink.feed",
    "conservative.conservative_solve",
    "algebras.derivation_algebra",
    "contraction.iw_contract",
)

_PACKAGE = "nonassoc"


def _module(short: str):
    return importlib.import_module("%s.%s" % (_PACKAGE, short))


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == _PACKAGE or n.startswith(_PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self) -> list:
        frame = [time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def _exit(self, name: str, frame: list):
        dur = time.perf_counter() - frame[0]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][1] += dur
        with self._lock:
            self.total_s[name] += dur
            self.self_s[name] += dur - frame[1]

    def _count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[name] += n

    def _high(self, name: str, value: int):
        with self._lock:
            if value > self.maxima[name]:
                self.maxima[name] = value

    def _timed(self, entry: str, span: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count_call(entry)
            frame = self._enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span, frame)
            if after is not None:
                after(out)
            return out

        return wrapper

    def _count_call(self, entry: str):
        with self._lock:
            self.calls[entry] += 1

    # -- installation ------------------------------------------------------

    def _rebind(self, orig, make):
        """Replace every package-module binding of orig by make(module)."""
        bound = 0
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, make(mod.__name__.rpartition(".")[2]))
                    self._undo.append((mod, attr, value))
                    bound += 1
        if not bound:
            raise RuntimeError("no module binds %r" % (orig,))

    def _patch_method(self, cls, attr: str, make):
        orig = cls.__dict__[attr]
        self._undo.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def install(self):
        # load every module that may hold a binding before scanning them
        fastrank, identities, linalg, conservative, algebras, contraction = (
            _module(name) for name in
            ("fastrank", "identities", "linalg", "conservative", "algebras", "contraction"))
        _module("cohomology")
        _module("claims")

        def accepted(grew):
            if grew:
                self._count("linalg.ranksink_accepted")

        def violators(out):
            self._count("fastrank.violators", len(out))

        def violation(out):
            if out is not None:
                self._count("identities.violations_found")

        self._patch_method(fastrank.ModularFilter, "filter_block", self._filter_block)
        self._patch_method(linalg.RankSink, "feed", lambda orig: self._timed(
            "linalg.RankSink.feed", "linalg.ranksink", orig, accepted))
        self.shape_tables_cache = identities._shape_tables
        for orig, span, after in (
            (fastrank._find_violators, "fastrank.certify", violators),
            (identities.first_violation, "identities.first_violation", violation),
            (identities._shape_tables, "identities.value_tables", None),
            (conservative.conservative_solve, "conservative.solve", None),
            (algebras.derivation_algebra, "algebras.derivations", None),
            (contraction.iw_contract, "contraction.contract", None),
        ):
            entry = "%s.%s" % (orig.__module__.rpartition(".")[2], orig.__qualname__)
            wrapper = self._timed(entry, span, orig, after)
            self._rebind(orig, lambda _module, w=wrapper: w)
        for orig, make in (
            (fastrank.nullspace_int, self._nullspace_int),
            (fastrank.rref_int, self._rref_int),
            (fastrank._exact_products, self._exact_products),
        ):
            wrapper = make(orig)
            self._rebind(orig, lambda _module, w=wrapper: w)
        blocks = identities._parallel_blocks
        self._rebind(blocks, lambda module: self._parallel_blocks(module, blocks))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- layer wrappers ----------------------------------------------------

    def _nullspace_int(self, orig):
        """The exact stage; marks the thread so that rref_int can tell its
        first call (elimination) from its second (canonicalisation)."""
        def after(out):
            self._high("fastrank.null_dim_max", len(out[2]))

        timed = self._timed("fastrank.nullspace_int", "fastrank.exact", orig, after)

        @functools.wraps(orig)
        def nullspace_int(*args, **kwargs):
            self._tls.rref_calls = 0
            try:
                return timed(*args, **kwargs)
            finally:
                self._tls.rref_calls = None

        return nullspace_int

    def _rref_int(self, orig):
        @functools.wraps(orig)
        def rref_int(*args, **kwargs):
            seen = getattr(self._tls, "rref_calls", None)
            if seen is None:
                span = "fastrank.eliminate_outside"
            else:
                self._tls.rref_calls = seen + 1
                span = "fastrank.eliminate" if seen == 0 else "fastrank.canonicalise"
            self._count_call("fastrank.rref_int")
            frame = self._enter()
            try:
                return orig(*args, **kwargs)
            finally:
                self._exit(span, frame)

        return rref_int

    def _exact_products(self, orig):
        """Counted, not timed: its time stays in the certification span."""
        @functools.wraps(orig)
        def exact_products(*args, **kwargs):
            self._count_call("fastrank._exact_products")
            out = orig(*args, **kwargs)
            if out.dtype == object:
                self._count("fastrank.products_object")
            return out

        return exact_products

    def _filter_block(self, orig):
        @functools.wraps(orig)
        def filter_block(filt, block):
            self._count_call("fastrank.ModularFilter.filter_block")
            full_before = filt.rank_lower_bound == filt.cols
            frame = self._enter()
            try:
                accepted = orig(filt, block)
            finally:
                self._exit("fastrank.filter", frame)
            rows = block.shape[0]
            if full_before:
                after_full = rows
            elif filt.rank_lower_bound == filt.cols:
                after_full = rows - accepted[-1] - 1
            else:
                after_full = 0
            with self._lock:
                self.counts["fastrank.rows_filtered"] += rows
                self.counts["fastrank.rows_accepted"] += len(accepted)
                self.counts["fastrank.rows_after_full_rank"] += after_full
            return accepted

        return filter_block

    def _parallel_blocks(self, module: str, orig):
        """Wrap a block stream: build time on the workers, wait time and
        read-ahead (blocks built but not yet handed to the consumer)."""
        entry = "%s._parallel_blocks" % module

        @functools.wraps(orig)
        def parallel_blocks(ranges, build):
            self._count_call(entry)
            ahead = [0]

            def traced_build(rng):
                frame = self._enter()
                try:
                    block = build(rng)
                finally:
                    self._exit(module + ".assemble", frame)
                with self._lock:
                    self.counts[module + ".rows_built"] += len(block)
                    ahead[0] += 1
                    if ahead[0] > self.maxima[module + ".blocks_ahead_max"]:
                        self.maxima[module + ".blocks_ahead_max"] = ahead[0]
                return block

            blocks = orig(ranges, traced_build)
            try:
                while True:
                    frame = self._enter()
                    try:
                        block = next(blocks)
                    except StopIteration:
                        return
                    finally:
                        self._exit(module + ".assemble_wait", frame)
                    with self._lock:
                        ahead[0] -= 1
                    yield block
            finally:
                blocks.close()

        return parallel_blocks

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values by metric name (without the unit)."""
        c, t, s, mx = self.counts, self.total_s, self.self_s, self.maxima
        filtered = c["fastrank.rows_filtered"]
        products = self.calls["fastrank._exact_products"]
        fed = self.calls["linalg.RankSink.feed"]
        info = self.shape_tables_cache.cache_info()
        lookups = info.hits + info.misses
        out = {
            "fastrank.filter_s": s["fastrank.filter"],
            "fastrank.rows_filtered": filtered,
            "fastrank.rows_accepted": c["fastrank.rows_accepted"],
            "fastrank.filter_accept_ratio":
                c["fastrank.rows_accepted"] / filtered if filtered else 0.0,
            "fastrank.rows_after_full_rank": c["fastrank.rows_after_full_rank"],
            "fastrank.eliminate_s": t["fastrank.eliminate"] + t["fastrank.eliminate_outside"],
            "fastrank.canonicalise_s": t["fastrank.canonicalise"],
            "fastrank.exact_s": t["fastrank.exact"] + t["fastrank.eliminate_outside"],
            "fastrank.null_dim_max": mx["fastrank.null_dim_max"],
            "fastrank.certify_s": s["fastrank.certify"],
            "fastrank.certify_rounds": self.calls["fastrank._find_violators"],
            "fastrank.violators": c["fastrank.violators"],
            "fastrank.object_path_frac":
                c["fastrank.products_object"] / products if products else 0.0,
            "identities.value_tables_s": s["identities.value_tables"],
            "identities.value_tables_hit_ratio": info.hits / lookups if lookups else 0.0,
            "identities.first_violation_s": s["identities.first_violation"],
            "identities.first_violation_calls": self.calls["identities.first_violation"],
            "identities.violations_found": c["identities.violations_found"],
            "linalg.ranksink_s": s["linalg.ranksink"],
            "linalg.ranksink_rows": fed,
            "linalg.ranksink_accept_ratio":
                c["linalg.ranksink_accepted"] / fed if fed else 0.0,
            "conservative.solve_s": s["conservative.solve"],
            "algebras.derivations_s": s["algebras.derivations"],
            "contraction.contract_s": s["contraction.contract"],
        }
        for module in ("identities", "cohomology"):
            out[module + ".assemble_busy_s"] = t[module + ".assemble"]
            out[module + ".assemble_wait_s"] = t[module + ".assemble_wait"]
            out[module + ".rows_built"] = c[module + ".rows_built"]
            out[module + ".blocks_ahead_max"] = mx[module + ".blocks_ahead_max"]
        return out
