"""In-memory tracing of `ordalg` layers, installed from outside the source.

The tracer wraps public functions and methods where their callers look
them up (module attributes, class attributes), so the library itself is
never edited.  Every wrapped call opens a span on a stack; when it ends,
its duration is added to its name's totals and its self time (duration
minus the time its traced children cover) is computed on the spot.  The
first SPAN_CAP spans of each name are also kept as (id, name, start,
end, parent) and written out when the run ends; aggregates cover every
call.

Functional evaluations (`value` on every Functional class) and generator
yields are counted without being timed: they are the hottest calls, and
a span around each would dominate what it measures.
"""
from __future__ import annotations

import sys
import time
from collections import Counter

SPAN_CAP = 200


class Stat:
    __slots__ = ("calls", "total", "self_time", "depth", "kept")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost inclusive seconds
        self.self_time = 0.0
        self.depth = 0  # open spans of this name
        self.kept = 0  # spans recorded


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # One entry per open span: seconds its traced children took, and
        # the id of the nearest recorded span (itself or an ancestor).
        self.child_time: list[float] = []
        self.owner: list[int | None] = []
        self.stats: dict[str, Stat] = {}
        self.counts: Counter = Counter()
        self.spans: list[list] = []  # [id, name, start, end, parent id]

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def inside(self, name: str) -> bool:
        st = self.stats.get(name)
        return st is not None and st.depth > 0


def _timed(tracer: Tracer, name: str, fn, post=None, on_error=None):
    """Wrap `fn` in a span named `name`.  The bookkeeping is inlined and
    allocates no container per call: this wrapper runs millions of times
    in a traced check."""
    st = tracer.stat(name)
    child_time, owner, spans, clock = tracer.child_time, tracer.owner, tracer.spans, tracer.clock

    def wrapper(*args, **kwargs):
        if st.kept < SPAN_CAP:
            st.kept += 1
            span = [len(spans), name, None, None, owner[-1] if owner else None]
            spans.append(span)
            owner.append(span[0])
        else:
            span = None
            owner.append(owner[-1] if owner else None)
        child_time.append(0.0)
        st.depth += 1
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            end = clock()
            duration = end - start
            owner.pop()
            st.self_time += duration - child_time.pop()
            st.calls += 1
            st.depth -= 1
            if not st.depth:
                st.total += duration
            if child_time:
                child_time[-1] += duration
            if span is not None:
                span[2:4] = start, end
        if post is not None:
            post(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _replace_everywhere(modules, original, replacement) -> int:
    """Point every module attribute bound to `original` at `replacement`."""
    n = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap the traced `ordalg` layers.  Call after `ordalg.cli` is
    imported."""
    import ordalg.cli
    from ordalg import convolution, funcspace, functionals, order, report, sproduct, structures, suites
    from ordalg.errors import CapacityError

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("ordalg")]
    t = tracer
    c = tracer.counts

    def wrap_function(mod, attr, name, **hooks):
        original = getattr(mod, attr)
        if not _replace_everywhere(modules, original, _timed(t, name, original, **hooks)):
            raise RuntimeError(f"{mod.__name__}.{attr} is not bound anywhere")

    def wrap_method(cls, attr, name, wrapper=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, wrapper(original) if wrapper else _timed(t, name, original))

    # cli, workspace, structures, order
    wrap_function(ordalg.cli, "parse", "workspace.parse")
    wrap_method(structures.FinStruct, "__post_init__", "structures.finstruct_init")
    wrap_function(structures, "check_law", "structures.check_law")
    wrap_function(order, "check_order_axioms", "order.check_order_axioms")
    wrap_function(order, "sup_over", "order.sup_over")
    wrap_function(order, "inf_over", "order.inf_over")

    # funcspace
    for attr in ("vee", "wedge", "odot", "add", "leq", "comparable_pointwise"):
        wrap_method(funcspace.FunctionSpace, attr, "funcspace.pointwise")
    wrap_method(funcspace.FunctionSpace, "function", "funcspace.function")
    wrap_method(funcspace.FunctionSpace, "functions", "funcspace.functions")

    # functionals: every evaluation, counted only
    for cls in _subclasses(functionals.Functional):
        if "value" in cls.__dict__:
            wrap_method(cls, "value", None, lambda fn: _counted(t, "functionals.evaluations", fn))

    def count_yields(fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if t.inside("functionals.enumerate_idempotent"):
                    c["functionals.tables_scanned"] += 1
                elif t.inside("convolution.all_kind_functionals"):
                    c["convolution.seed_scanned"] += 1
                yield item

        return wrapper

    _replace_everywhere(
        modules,
        functionals.enumerate_functionals,
        count_yields(functionals.enumerate_functionals),
    )
    wrap_function(functionals, "check_idempotent", "functionals.check_idempotent")
    wrap_function(functionals, "check_weak_properties", "functionals.check_weak_properties")

    def kept_tables(args, result):
        c["functionals.tables_kept"] += len(result)

    wrap_function(functionals, "enumerate_idempotent", "functionals.enumerate_idempotent", post=kept_tables)

    def family_init(fn):
        build = _timed(t, "functionals.family_build", fn)

        def wrapper(self):
            c["functionals.family_candidates"] += len(self.members)
            build(self)
            c["functionals.family_members"] += len(self.members)

        return wrapper

    wrap_method(functionals.FunctionalFamily, "__post_init__", None, family_init)
    wrap_function(functionals, "generated_family", "functionals.family_build")
    wrap_function(functionals, "signature", "functionals.signature")
    wrap_function(functionals, "xi", "functionals.xi")
    wrap_function(functionals, "monad_check", "functionals.monad_check")
    wrap_function(functionals, "support_of", "functionals.support_of")

    # convolution
    def seed_kept(args, result):
        c["convolution.seed_kept"] += len(result)

    def saturated(args, result):
        c["convolution.saturate_rounds"] += result.rounds
        c["convolution.members"] += len(result.members)
        c["convolution.saturate_fresh"] += len(result.members) - len({nu.table for nu in args[0]})

    def candidate(args, result):
        if t.inside("convolution.saturate"):
            c["convolution.saturate_candidates"] += 1

    wrap_function(convolution, "all_kind_functionals", "convolution.all_kind_functionals", post=seed_kept)
    wrap_function(convolution, "check_kind", "convolution.check_kind")
    wrap_function(convolution, "saturate", "convolution.saturate", post=saturated)
    wrap_function(convolution, "check_quasiring", "convolution.check_quasiring")
    wrap_function(convolution, "check_ideal", "convolution.check_ideal")
    wrap_function(convolution, "support_bounds", "convolution.support_bounds")
    wrap_function(convolution, "convolve", "convolution.convolve", post=candidate)
    wrap_function(convolution, "plus_kind", "convolution.plus_kind", post=candidate)
    wrap_function(convolution, "apply_T", "convolution.apply_T")

    # sproduct
    def escaped(exc):
        if isinstance(exc, CapacityError):
            c["sproduct.escapes"] += 1
            if t.inside("sproduct.find_nonassoc_witness"):
                c["sproduct.nonassoc_escapes"] += 1

    def searched(args, result):
        c["sproduct.nonassoc_tested"] += result.tested

    wrap_function(sproduct, "s_mu", "sproduct.s_mu", on_error=escaped)
    wrap_function(sproduct, "find_nonassoc_witness", "sproduct.find_nonassoc_witness", post=searched)

    # suites, report
    for suite, attr in (
        ("laws", "suite_laws"),
        ("idempotent", "suite_idempotent"),
        ("monad", "suite_monad"),
        ("convolution", "suite_convolution"),
        ("s-construction", "suite_sconstruction"),
    ):
        wrap_function(suites, attr, f"suites.{suite}")

    def recorded(args, result):
        _, records = result
        c["suites.records"] += len(records)
        c["suites.records_failed"] += sum(1 for r in records if not r.verdict.holds)

    wrap_function(suites, "run_suite", "suites.run_suite", post=recorded)
    wrap_method(suites.CheckRecord, "as_record_line", "report.format")
    wrap_function(report, "fmt_witness", "report.format")


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, kind, source): kind "s" is outermost inclusive seconds, "self"
# is self seconds, "calls" counts finished spans, "count" reads a counter.
LAYER_METRICS = [
    ("workspace.parse_s", "s", "workspace.parse"),
    ("structures.finstruct_init_s", "s", "structures.finstruct_init"),
    ("structures.check_law_s", "s", "structures.check_law"),
    ("structures.check_law_calls", "calls", "structures.check_law"),
    ("order.check_order_axioms_s", "s", "order.check_order_axioms"),
    ("order.sup_over_calls", "calls", "order.sup_over"),
    ("order.sup_over_s", "s", "order.sup_over"),
    ("order.inf_over_calls", "calls", "order.inf_over"),
    ("order.inf_over_s", "s", "order.inf_over"),
    ("funcspace.pointwise_calls", "calls", "funcspace.pointwise"),
    ("funcspace.pointwise_s", "s", "funcspace.pointwise"),
    ("funcspace.function_calls", "calls", "funcspace.function"),
    ("funcspace.function_s", "s", "funcspace.function"),
    ("funcspace.functions_s", "s", "funcspace.functions"),
    ("funcspace.functions_count", "calls", "funcspace.functions"),
    ("functionals.evaluations", "count", "functionals.evaluations"),
    ("functionals.check_idempotent_calls", "calls", "functionals.check_idempotent"),
    ("functionals.check_idempotent_s", "s", "functionals.check_idempotent"),
    ("functionals.check_weak_properties_s", "s", "functionals.check_weak_properties"),
    ("functionals.enumerate_idempotent_s", "s", "functionals.enumerate_idempotent"),
    ("functionals.tables_scanned", "count", "functionals.tables_scanned"),
    ("functionals.tables_kept", "count", "functionals.tables_kept"),
    ("functionals.family_build_s", "s", "functionals.family_build"),
    ("functionals.family_members", "count", "functionals.family_members"),
    ("functionals.signature_calls", "calls", "functionals.signature"),
    ("functionals.signature_s", "s", "functionals.signature"),
    ("functionals.xi_calls", "calls", "functionals.xi"),
    ("functionals.xi_s", "s", "functionals.xi"),
    ("functionals.monad_check_s", "s", "functionals.monad_check"),
    ("functionals.support_of_s", "s", "functionals.support_of"),
    ("convolution.all_kind_functionals_s", "s", "convolution.all_kind_functionals"),
    ("convolution.seed_scanned", "count", "convolution.seed_scanned"),
    ("convolution.seed_kept", "count", "convolution.seed_kept"),
    ("convolution.check_kind_calls", "calls", "convolution.check_kind"),
    ("convolution.saturate_s", "s", "convolution.saturate"),
    ("convolution.saturate_rounds", "count", "convolution.saturate_rounds"),
    ("convolution.members", "count", "convolution.members"),
    ("convolution.check_quasiring_s", "s", "convolution.check_quasiring"),
    ("convolution.check_ideal_s", "s", "convolution.check_ideal"),
    ("convolution.support_bounds_s", "s", "convolution.support_bounds"),
    ("convolution.convolve_calls", "calls", "convolution.convolve"),
    ("convolution.plus_kind_calls", "calls", "convolution.plus_kind"),
    ("convolution.plus_kind_s", "s", "convolution.plus_kind"),
    ("convolution.apply_T_calls", "calls", "convolution.apply_T"),
    ("convolution.apply_T_s", "s", "convolution.apply_T"),
    ("sproduct.s_mu_calls", "calls", "sproduct.s_mu"),
    ("sproduct.s_mu_s", "s", "sproduct.s_mu"),
    ("sproduct.escapes", "count", "sproduct.escapes"),
    ("sproduct.nonassoc_tested", "count", "sproduct.nonassoc_tested"),
    ("suites.laws_s", "self", "suites.laws"),
    ("suites.idempotent_s", "self", "suites.idempotent"),
    ("suites.monad_s", "self", "suites.monad"),
    ("suites.convolution_s", "self", "suites.convolution"),
    ("suites.s-construction_s", "self", "suites.s-construction"),
    ("suites.records", "count", "suites.records"),
    ("suites.records_failed", "count", "suites.records_failed"),
    ("report.format_s", "s", "report.format"),
]


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics from a tracer summary (see `summarize`)."""
    tables = {
        "s": summary["total"],
        "self": summary["self_time"],
        "calls": summary["calls"],
        "count": summary["counts"],
    }
    out = {metric: tables[kind].get(source, 0) for metric, kind, source in LAYER_METRICS}
    cnt = summary["counts"]
    out["functionals.kept_ratio"] = _ratio(
        cnt.get("functionals.tables_kept", 0), cnt.get("functionals.tables_scanned", 0)
    )
    out["functionals.family_distinct_ratio"] = _ratio(
        cnt.get("functionals.family_members", 0), cnt.get("functionals.family_candidates", 0)
    )
    out["convolution.seed_kept_ratio"] = _ratio(
        cnt.get("convolution.seed_kept", 0), cnt.get("convolution.seed_scanned", 0)
    )
    out["convolution.saturate_fresh_ratio"] = _ratio(
        cnt.get("convolution.saturate_fresh", 0), cnt.get("convolution.saturate_candidates", 0)
    )
    tested = cnt.get("sproduct.nonassoc_tested", 0)
    out["sproduct.nonassoc_useful_ratio"] = _ratio(tested - cnt.get("sproduct.nonassoc_escapes", 0), tested)
    return out


def layer_metric_names() -> list[str]:
    return list(layer_metrics({"total": {}, "self_time": {}, "calls": {}, "counts": {}}))


def summarize(tracer: Tracer) -> dict:
    return {
        "calls": {k: st.calls for k, st in tracer.stats.items()},
        "total": {k: st.total for k, st in tracer.stats.items()},
        "self_time": {k: st.self_time for k, st in tracer.stats.items()},
        "counts": dict(tracer.counts),
        "spans": tracer.spans,
    }


def exact_counts(summary: dict) -> dict:
    """Every count the traced run makes; these must repeat exactly."""
    calls = {f"calls:{k}": v for k, v in summary["calls"].items()}
    return {**calls, **{f"count:{k}": v for k, v in summary["counts"].items()}}
