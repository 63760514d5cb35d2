"""Per-layer tracing for the benchmark, installed from outside the package.

The tracer replaces selected module-level functions and methods of
``supdeform`` with wrappers that record, per span, the number of calls, the
total time (outermost calls only) and the self time (duration minus the time
covered by traced callees, the callees' own bookkeeping included).  A few
spans also feed counters read from their arguments or results.

Every name the program imported with ``from .x import f`` is patched too, so
the wrappers see calls made through any module.  A span whose target does
not exist, for example a helper deleted by a later refactor, is recorded as
absent; every metric that needs it is then reported as absent, never as 0.
The same holds for a span whose counter hook fails because the data it reads
changed shape: the program's call is left alone and the span is set aside.

``scalars`` (exact Q and Q[t] arithmetic) and ``exterior`` stay unwrapped on
purpose: their per-operation calls are too fine-grained to wrap without
distorting the numbers.  Their time is part of the callers' spans.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# span name -> (module, attribute path); a dotted path names a method
SPANS = {
    "config.load_config": ("supdeform.config", "load_config"),
    "brackets.form_bracket": ("supdeform.brackets", "form_bracket"),
    "brackets.deformed_schouten": ("supdeform.brackets", "deformed_schouten"),
    "brackets.extension_bracket": ("supdeform.brackets", "extension_bracket"),
    "brackets.solve_g0_prime": ("supdeform.brackets", "solve_g0_prime"),
    "brackets.solve_g0_doubleprime": ("supdeform.brackets", "solve_g0_doubleprime"),
    "axioms.check_supersymmetry": ("supdeform.axioms", "check_supersymmetry"),
    "axioms.check_superjacobi": ("supdeform.axioms", "check_superjacobi"),
    "chains.enumerate_basis": ("supdeform.chains", "ChainComplexSystem.enumerate_basis"),
    "chains.boundary_word": ("supdeform.chains", "ChainComplexSystem.boundary_word"),
    "homology.betti_piecewise": ("supdeform.homology", "betti_piecewise"),
    "homology.boundary_matrix": ("supdeform.homology", "boundary_matrix"),
    "homology.check_complex": ("supdeform.homology", "_check_complex"),
    "homology.generic_rank": ("supdeform.homology", "generic_rank"),
    "homology.bareiss": ("supdeform.homology", "bareiss"),
    "homology.special_locus_for_matrix": ("supdeform.homology", "special_locus_for_matrix"),
    "homology.minors_gcd": ("supdeform.homology", "minors_gcd"),
    "homology.det_poly": ("supdeform.homology", "det_poly"),
    "homology.rank_at_rational": ("supdeform.homology", "rank_at_rational"),
    "homology.rank_modulo": ("supdeform.homology", "rank_modulo"),
    "cli.emit": ("supdeform.cli", "_emit"),
}


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_s": self.total, "self_s": self.self_time}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the target does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Spans and counters for one traced pass; ``install``/``uninstall`` patch
    and restore the program."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self.counters: dict[str, float] = {}
        self._covered: list[float] = []  # per open span: time covered by traced callees
        self._patches: list[tuple[object, str, object]] = []
        self._bracket_args: set = set()
        self._pinned_specs: dict[int, object] = {}
        self._calls_at_mark: dict[str, int] = {}

    # -- patching -------------------------------------------------------------

    def install(self):
        hooks = _hooks(self)
        for name, (module_name, path) in SPANS.items():
            target = _resolve(module_name, path)
            if target is None:
                self.absent.append(name)
                continue
            owner, attr, original = target
            stat = self.stats[name] = SpanStats()
            enter, leave = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, stat, enter, leave)
            if "." in path:
                self._patch(owner, attr, wrapper)
                continue
            # every module-level alias of the function, e.g. from `from .x import f`
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "supdeform" and not mod_name.startswith("supdeform."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, stat: SpanStats, enter, leave):
        covered = self._covered
        no_result = object()

        def run_hook(hook, *hook_args):
            try:
                return hook(*hook_args)
            except Exception as exc:  # the hook's view of the data is out of date
                self.hook_errors.setdefault(name, repr(exc))

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            token = run_hook(enter, args) if enter else None
            covered.append(0.0)
            stat.depth += 1
            result = no_result
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stat.depth -= 1
                inner = covered.pop()
                stat.calls += 1
                if stat.depth == 0:
                    stat.total += elapsed
                stat.self_time += elapsed - inner
                if leave and result is not no_result:
                    run_hook(leave, token, args, kwargs, result)
                if covered:
                    covered[-1] += perf_counter() - t_enter

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading --------------------------------------------------------------

    def has(self, *spans: str) -> bool:
        return all(name in self.stats and name not in self.hook_errors for name in spans)

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def total(self, name: str) -> float:
        return self.stats[name].total

    def self_time(self, name: str) -> float:
        return self.stats[name].self_time

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def calls_since_mark(self) -> dict[str, int]:
        """Span call counts since the previous call of this method (nonzero only)."""
        out = {}
        for name, stat in self.stats.items():
            delta = stat.calls - self._calls_at_mark.get(name, 0)
            if delta:
                out[name] = delta
            self._calls_at_mark[name] = stat.calls
        return out

    def distinct_bracket_args(self) -> int:
        return len(self._bracket_args)

    def record_bracket_args(self, args, kwargs):
        """Record one (spec, alpha, beta) call; specs compare by identity."""
        spec, *elements = args
        # keep each spec alive so that its id cannot be reused by another one
        self._pinned_specs.setdefault(id(spec), spec)
        self._bracket_args.add((id(spec), tuple(elements), tuple(sorted(kwargs.items()))))


def _hooks(tracer: Tracer) -> dict:
    """span name -> (enter(args) -> token, leave(token, args, kwargs, result))."""
    stats = tracer.stats

    def bracket_args(_token, args, kwargs, _result):
        tracer.record_bracket_args(args, kwargs)

    def checked(counter):
        return lambda _token, _args, _kwargs, report: tracer.count(counter, report.checked)

    def basis_words(_token, _args, _kwargs, words):
        tracer.count("chains.basis_words", len(words))

    def matrix_shape(_token, _args, _kwargs, matrix):
        rows, cols = matrix.shape
        tracer.maximum("homology.max_rows", rows)
        tracer.maximum("homology.max_cols", cols)
        tracer.count("homology.entries_total", rows * cols)
        tracer.count("homology.entries_nnz", sum(1 for row in matrix.entries for e in row if not e.is_zero()))

    def locus_enter(_args):
        minors = stats.get("homology.minors_gcd")
        bareiss = stats.get("homology.bareiss")
        return (minors.calls if minors else None, bareiss.calls if bareiss else None)

    def locus_leave(token, _args, _kwargs, conditions):
        tracer.count("homology.locus_conditions", len(conditions))
        minors_before, bareiss_before = token
        if minors_before is None or bareiss_before is None:
            return
        # the minors path enters minors_gcd; the pivots path eliminates a
        # second time after generic_rank; an early exit does neither
        if stats["homology.minors_gcd"].calls > minors_before:
            tracer.count("homology.locus_minors_calls")
        elif stats["homology.bareiss"].calls - bareiss_before >= 2:
            tracer.count("homology.locus_pivots_calls")

    return {
        "brackets.form_bracket": (None, bracket_args),
        "axioms.check_supersymmetry": (None, checked("axioms.pairs_checked")),
        "axioms.check_superjacobi": (None, checked("axioms.triples_checked")),
        "chains.enumerate_basis": (None, basis_words),
        "homology.boundary_matrix": (None, matrix_shape),
        "homology.special_locus_for_matrix": (locus_enter, locus_leave),
    }


def _calls(*spans):
    return lambda t: sum(t.calls(s) for s in spans)


def _total(*spans):
    return lambda t: sum(t.total(s) for s in spans)


def _counter(name):
    return lambda t: t.counters.get(name, 0)


def _distinct_frac(t):
    calls = t.calls("brackets.form_bracket")
    return t.distinct_bracket_args() / calls if calls else 0.0


# metric -> (unit, spans it needs, value from a tracer after one traced pass)
METRICS = {
    "homology.bareiss_calls": ("count", ["homology.bareiss"], _calls("homology.bareiss")),
    "homology.bareiss_s": ("s", ["homology.bareiss"], _total("homology.bareiss")),
    "homology.generic_rank_s": ("s", ["homology.generic_rank"], _total("homology.generic_rank")),
    "homology.locus_s": ("s", ["homology.special_locus_for_matrix"], _total("homology.special_locus_for_matrix")),
    "homology.dd_check_s": ("s", ["homology.check_complex"], _total("homology.check_complex")),
    "homology.specialize_calls": (
        "count",
        ["homology.rank_at_rational", "homology.rank_modulo"],
        _calls("homology.rank_at_rational", "homology.rank_modulo"),
    ),
    "homology.specialize_s": (
        "s",
        ["homology.rank_at_rational", "homology.rank_modulo"],
        _total("homology.rank_at_rational", "homology.rank_modulo"),
    ),
    "homology.locus_conditions": (
        "count",
        ["homology.special_locus_for_matrix"],
        _counter("homology.locus_conditions"),
    ),
    "homology.det_calls": ("count", ["homology.det_poly"], _calls("homology.det_poly")),
    "homology.locus_minors_calls": (
        "count",
        ["homology.special_locus_for_matrix", "homology.minors_gcd", "homology.bareiss"],
        _counter("homology.locus_minors_calls"),
    ),
    "homology.locus_pivots_calls": (
        "count",
        ["homology.special_locus_for_matrix", "homology.minors_gcd", "homology.bareiss"],
        _counter("homology.locus_pivots_calls"),
    ),
    "homology.boundary_matrix_s": ("s", ["homology.boundary_matrix"], _total("homology.boundary_matrix")),
    "homology.max_rows": ("count", ["homology.boundary_matrix"], _counter("homology.max_rows")),
    "homology.max_cols": ("count", ["homology.boundary_matrix"], _counter("homology.max_cols")),
    "homology.entries_nnz": ("count", ["homology.boundary_matrix"], _counter("homology.entries_nnz")),
    "homology.entries_total": ("count", ["homology.boundary_matrix"], _counter("homology.entries_total")),
    "chains.basis_s": ("s", ["chains.enumerate_basis"], _total("chains.enumerate_basis")),
    "chains.basis_words": ("count", ["chains.enumerate_basis"], _counter("chains.basis_words")),
    "chains.boundary_word_calls": ("count", ["chains.boundary_word"], _calls("chains.boundary_word")),
    "chains.boundary_word_s": ("s", ["chains.boundary_word"], _total("chains.boundary_word")),
    "brackets.form_bracket_calls": ("count", ["brackets.form_bracket"], _calls("brackets.form_bracket")),
    "brackets.form_bracket_s": ("s", ["brackets.form_bracket"], _total("brackets.form_bracket")),
    "brackets.form_bracket_distinct_frac": ("ratio", ["brackets.form_bracket"], _distinct_frac),
    "axioms.superjacobi_self_s": (
        "s",
        ["axioms.check_superjacobi"],
        lambda t: t.self_time("axioms.check_superjacobi"),
    ),
    "axioms.triples_checked": ("count", ["axioms.check_superjacobi"], _counter("axioms.triples_checked")),
    "axioms.pairs_checked": ("count", ["axioms.check_supersymmetry"], _counter("axioms.pairs_checked")),
    "brackets.deformed_schouten_calls": (
        "count",
        ["brackets.deformed_schouten"],
        _calls("brackets.deformed_schouten"),
    ),
    "brackets.deformed_schouten_s": ("s", ["brackets.deformed_schouten"], _total("brackets.deformed_schouten")),
    "brackets.extension_bracket_calls": (
        "count",
        ["brackets.extension_bracket"],
        _calls("brackets.extension_bracket"),
    ),
    "brackets.extension_bracket_s": ("s", ["brackets.extension_bracket"], _total("brackets.extension_bracket")),
    "brackets.g0_solve_s": (
        "s",
        ["brackets.solve_g0_prime", "brackets.solve_g0_doubleprime"],
        _total("brackets.solve_g0_prime", "brackets.solve_g0_doubleprime"),
    ),
    "config.load_s": ("s", ["config.load_config"], _total("config.load_config")),
    "config.loads": ("count", ["config.load_config"], _calls("config.load_config")),
    "cli.render_s": ("s", ["cli.emit"], _total("cli.emit")),
}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """(metric -> (value, unit), absent metric names) after one traced pass."""
    values, absent = {}, []
    for name, (unit, spans, value) in METRICS.items():
        if tracer.has(*spans):
            values[name] = (value(tracer), unit)
        else:
            absent.append(name)
    return values, absent
