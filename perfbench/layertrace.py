"""Per-layer tracing of torellikit, installed from outside the package.

``install()`` wraps the public functions and methods named in ``SPANS``,
``COUNTS`` and ``ROOTS`` after torellikit has been imported.  A function is
replaced in every torellikit module that holds it by name (``from .lpres
import phi_word`` makes a second reference), and a method is replaced on
its class.  Targets that a later version no longer has are skipped and
listed in ``Tracer.missing``.

Each span records thread CPU time, so the two worker threads of the suite
pool, which take turns under the interpreter lock, are not charged for each
other's turns.  Every thread has its own span stack and its own counters;
the totals stay in memory and are merged by ``Tracer.report()`` when the
pass ends.  A span's self time is its duration minus the duration of the
spans it called.  ``suites.run_suite`` is a root: its self time is its wall
time minus the CPU time of the outermost spans of every thread while it
ran, which leaves pool hand-off and bookkeeping.  ``Word`` construction is
counted, not timed: one span per construction would cost more than the
construction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

# metric prefix, module, attribute path, optional (extra counter, function
# of (args, result) giving the amount to add)
SPANS = [
    ("autos.Endo.mul", "torellikit.autos", "Endo.__mul__", None),
    ("autos.Endo.apply", "torellikit.autos", "Endo.apply", None),
    ("autos.Endo.inverse", "torellikit.autos", "Endo.inverse",
     ("factors", lambda args, result: len(args[0].factors or ()))),
    ("symwords.interpret", "torellikit.symwords", "interpret",
     ("tokens", lambda args, result: _token_count(args[0]))),
    ("symwords.SymWord", "torellikit.symwords", "SymWord.__init__", None),
    ("lpres.phi_word", "torellikit.lpres", "phi_word",
     ("tokens_out", lambda args, result: len(result.tokens))),
    ("lpres.rk0_instances", "torellikit.lpres", "rk0_instances", None),
    ("twisted.iota2", "torellikit.twisted", "iota2", None),
    ("twisted.lambda_bar", "torellikit.twisted", "lambda_bar", None),
    ("twisted.tlambda2", "torellikit.twisted", "tlambda2", None),
    ("twisted.tb_check", "torellikit.twisted", "tb_check", None),
    ("semidirect.aut_act_on_Zn", "torellikit.semidirect", "aut_act_on_Zn", None),
    ("intmat.inverse_unimodular", "torellikit.intmat", "inverse_unimodular", None),
    ("extension.ext_mul", "torellikit.extension", "ext_mul", None),
    ("extension.ext_inv", "torellikit.extension", "ext_inv", None),
    ("extension.cocycle_check", "torellikit.extension", "cocycle_check", None),
    ("certificates.check_certificate", "torellikit.certificates",
     "check_certificate", None),
]

# cached lookups: metric prefix, module, function, module-level cache dict
COUNTS = [
    ("symwords.token_endo", "torellikit.symwords", "token_endo", "_ENDO_CACHE"),
    ("lpres.phi_gen", "torellikit.lpres", "phi_gen", "_PHI_CACHE"),
]

ROOTS = [("suites.run_suite", "torellikit.suites", "run_suite")]

WORD = ("words.Word", "torellikit.words", "Word")


def _token_count(tokens) -> int:
    return len(getattr(tokens, "tokens", tokens))


class _ThreadState:
    __slots__ = ("stack", "top", "spans", "calls", "words")

    def __init__(self):
        self.stack = []      # child time accumulated by each open span
        self.top = 0.0       # CPU time of this thread's outermost spans
        self.spans = {}      # name -> [calls, self_s, extra]
        self.calls = {}      # name -> calls, for COUNTS
        self.words = [0, 0, 0, 0]  # calls, letters in, letters out, max len


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self.roots = {}      # name -> [calls, self_s]
        self.cache_sizes = {}
        self.missing = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, extra):
        clock = time.thread_time
        state = self._state

        def wrapper(*args, **kwargs):
            st = state()
            rec = st.spans.get(name)
            if rec is None:
                rec = st.spans[name] = [0, 0.0, 0]
            st.stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                rec[0] += 1
                rec[1] += dur - st.stack.pop()
                if st.stack:
                    st.stack[-1] += dur
                else:
                    st.top += dur
            if extra is not None:
                rec[2] += extra[1](args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _generator_span(self, name, fn):
        """Span every resumption of a generator: its body runs lazily."""
        step = self._span(name, next, None)

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return functools.wraps(fn)(wrapper)

    def _counter(self, name, fn):
        state = self._state

        def wrapper(*args, **kwargs):
            calls = state().calls
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _root(self, name, fn):
        def wrapper(*args, **kwargs):
            before = self._top_total()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                rec = self.roots.setdefault(name, [0, 0.0])
                rec[0] += 1
                rec[1] += wall - (self._top_total() - before)

        return functools.wraps(fn)(wrapper)

    def _top_total(self) -> float:
        with self._lock:
            return sum(st.top for st in self._states)

    def _word_init(self, init):
        state = self._state

        def wrapper(word, basis, letters=()):
            init(word, basis, letters)
            c = state().words
            out = len(word.letters)
            c[0] += 1
            c[1] += len(letters)
            c[2] += out
            if out > c[3]:
                c[3] = out

        return functools.wraps(init)(wrapper)

    # -- installation -----------------------------------------------------

    def _replace(self, module_name, path, make):
        """Wrap ``module.path`` with ``make(original)``; False if absent."""
        try:
            module = importlib.import_module(module_name)
        except ModuleNotFoundError:
            module = None
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return False
        wrapped = make(original)
        if owner_name:
            setattr(owner, attr, wrapped)
            return True
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("torellikit"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return True

    def install(self):
        for name, module, path, extra in SPANS:
            def make(fn, name=name, extra=extra):
                if inspect.isgeneratorfunction(fn):
                    return self._generator_span(name, fn)
                return self._span(name, fn, extra)
            self._replace(module, path, make)
        for name, module, path, cache in COUNTS:
            if self._replace(module, path, lambda fn, name=name: self._counter(name, fn)):
                table = getattr(sys.modules[module], cache, None)
                if table is not None:
                    self.cache_sizes[name] = (table, len(table))
        for name, module, path in ROOTS:
            self._replace(module, path, lambda fn, name=name: self._root(name, fn))
        _, module, cls = WORD
        self._replace(module, cls + ".__init__", self._word_init)
        return self

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        spans, calls, words = {}, {}, [0, 0, 0, 0]
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (n, self_s, extra) in st.spans.items():
                acc = spans.setdefault(name, [0, 0.0, 0])
                acc[0] += n
                acc[1] += self_s
                acc[2] += extra
            for name, n in st.calls.items():
                calls[name] = calls.get(name, 0) + n
            for i in range(3):
                words[i] += st.words[i]
            words[3] = max(words[3], st.words[3])
        out = {}
        for name, _, _, extra in SPANS:
            n, self_s, amount = spans.get(name, (0, 0.0, 0))
            out[name + ".calls"] = n
            out[name + ".self_s"] = self_s
            if extra is not None:
                out[f"{name}.{extra[0]}"] = amount
        for name, _, _, _ in COUNTS:
            n = calls.get(name, 0)
            if name in self.cache_sizes:
                table, size0 = self.cache_sizes[name]
                misses = len(table) - size0
            else:  # no cache to watch: count every call as a miss
                misses = n
            out[name + ".calls"] = n
            out[name + ".hit_ratio"] = (n - misses) / n if n else 0.0
        for name, _, _ in ROOTS:
            n, self_s = self.roots.get(name, (0, 0.0))
            out[name + ".calls"] = n
            out[name + ".self_s"] = self_s
        prefix = WORD[0]
        out[prefix + ".calls"] = words[0]
        out[prefix + ".letters_in"] = words[1]
        out[prefix + ".cancel_ratio"] = (
            (words[1] - words[2]) / words[1] if words[1] else 0.0
        )
        out[prefix + ".max_len"] = words[3]
        return out


def install() -> Tracer:
    return Tracer().install()
