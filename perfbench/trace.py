"""Spans around the public calls of each layer, recorded from outside.

``Tracer.install`` replaces each traced name with a wrapper that records a
span (name, start, end, parent) and a few counters, and ``uninstall`` puts
the originals back.  A name that one module imports from another is looked
up in the importing module's namespace, so it is wrapped there as well (for
example ``clarke.decompose`` and ``whitney.dhess_padded``).  Spans stay in
memory for one round; ``round_metrics`` turns them into counts and self
times, where a span's self time is its duration minus the time covered by
its child spans.
"""
from __future__ import annotations

import functools
import importlib
import time

PKG = "levyminmax"

# (module or module.Class, attribute, span name)
TRACED = [
    ("cubes", "partition_raw_sums", "cubes.partition_raw_sums"),
    ("cubes", "cubes_at", "cubes.cubes_at"),
    ("whitney.ExtendedFn", "values", "whitney.values"),
    ("whitney", "dgrad_padded", "calculus.stencil"),
    ("whitney", "dhess_padded", "calculus.stencil"),
    ("approx.DiscreteSurrogate", "__call__", "approx.surrogate"),
    ("approx", "convergence_study", "approx.study"),
    ("cli", "convergence_study", "approx.study"),
    ("approx", "probe_tightness", "approx.probe"),
    ("approx", "probe_lipschitz", "approx.probe"),
    ("cli", "probe_tightness", "approx.probe"),
    ("cli", "probe_lipschitz", "approx.probe"),
    ("clarke", "jacobian_at", "clarke.jacobian"),
    ("clarke", "minmax_eval", "clarke.minmax"),
    ("approx", "minmax_eval", "clarke.minmax"),
    ("clarke", "coefficient_fields", "clarke.fields"),
    ("clarke", "representation_residual", "clarke.residual"),
    ("courrege", "decompose", "courrege.decompose"),
    ("clarke", "decompose", "courrege.decompose"),
    ("cli", "decompose", "courrege.decompose"),
    ("courrege", "reconstruct_residual", "courrege.reconstruct"),
    ("clarke", "reconstruct_residual", "courrege.reconstruct"),
    ("cli", "reconstruct_residual", "courrege.reconstruct"),
    ("operators.StencilOperator", "__call__", "operators.op"),
    ("operators.BellmanOp", "__call__", "operators.op"),
    ("operators.IsaacsOp", "__call__", "operators.op"),
    ("operators.PucciOp", "__call__", "operators.op"),
    ("operators.MongeAmpereOp", "__call__", "operators.op"),
    ("operators", "dtn_apply", "operators.dtn"),
    ("operators", "dtn_kernel", "operators.dtn"),
    ("cli", "dtn_apply", "operators.dtn"),
    ("cli", "dtn_kernel", "operators.dtn"),
    ("cli", "cmd_decompose", "cli.decompose"),
    ("cli", "cmd_minmax", "cli.minmax"),
    ("cli", "cmd_converge", "cli.converge"),
    ("cli", "cmd_dtn", "cli.dtn"),
]

# source callables are wrapped where they enter the approx layer
SOURCE_ENTRIES = [("approx", "build_surrogate"), ("approx", "convergence_study"),
                  ("cli", "convergence_study")]

# span names reported with calls and self time, and with self time only
SELF_TIMED = ("cubes.partition_raw_sums", "cubes.cubes_at", "whitney.values",
              "calculus.stencil", "approx.surrogate", "approx.source",
              "clarke.jacobian", "courrege.decompose", "operators.op")
SELF_ONLY = ("approx.study", "approx.probe", "clarke.minmax", "clarke.fields",
             "clarke.residual", "courrege.reconstruct", "operators.dtn")
CLI_TOTALS = ("cli.decompose", "cli.minmax", "cli.converge", "cli.dtn")


def _resolve(path: str):
    mod, _, cls = path.partition(".")
    obj = importlib.import_module(f"{PKG}.{mod}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counters while installed; one round at a time."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.rows: set = set()
        self.jacobian_bytes = 0
        self._saved: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts = {"partition_points": 0, "cover_cubes": 0, "values_points": 0,
                       "jacobian_columns": 0, "jacobian_op_evals": 0, "atoms": 0}
        self.rows = set()
        self.jacobian_bytes = 0

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    # --- wrappers -------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[slot] = (name, t0, t1, parent)
            if after is not None:
                after(args, result)
            return result

        traced.__perfbench_wrapped__ = True
        return traced

    def _source(self, src):
        if getattr(src, "__perfbench_wrapped__", False) or not callable(src):
            return src
        return self.wrap("approx.source", src)

    def _hooks(self, name: str):
        """Argument and result hooks that feed the counters of one span name."""
        if name == "cubes.partition_raw_sums":
            return None, lambda a, r: self._count("partition_points", len(r))
        if name == "cubes.cubes_at":
            return None, lambda a, r: self._count("cover_cubes", len(r.cubes))
        if name == "whitney.values":
            return None, lambda a, r: self._count("values_points", len(r))
        if name == "clarke.jacobian":
            def before(args, kwargs):
                op, rest = args[0], args[1:]

                def counted(vec):
                    self.counts["jacobian_op_evals"] += 1
                    return op(vec)
                return (counted,) + rest, kwargs

            def after(args, r):
                self._count("jacobian_columns", r.point.size)
                m = r.matrix
                size = m.nbytes if hasattr(m, "nbytes") else (
                    m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
                self.jacobian_bytes = max(self.jacobian_bytes, size)
            return before, after
        if name == "courrege.decompose":
            def after(args, r):
                row = args[0]
                self.rows.add((row.offsets.tobytes(), row.weights.tobytes()))
                self._count("atoms", r.atoms.shape[0])
            return None, after
        return None, None

    def install(self) -> None:
        self.reset()
        wrapped = {}
        for path, attr, name in TRACED:
            owner = _resolve(path)
            orig = getattr(owner, attr)
            key = id(orig)
            if key not in wrapped:
                before, after = self._hooks(name)
                wrapped[key] = self.wrap(name, orig, before, after)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[key])
        for path, attr in SOURCE_ENTRIES:
            owner = _resolve(path)
            inner = getattr(owner, attr)

            def with_source(*args, _inner=inner, **kwargs):
                return _inner(self._source(args[0]), *args[1:], **kwargs)

            self._saved.append((owner, attr, inner))
            setattr(owner, attr, functools.wraps(inner)(with_source))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    # --- aggregation ----------------------------------------------------

    def round_metrics(self) -> dict:
        """Counts and self times of the spans recorded since the last reset."""
        calls: dict = {}
        total: dict = {}
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        selft: dict = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            selft[name] = selft.get(name, 0.0) + (t1 - t0 - child[i])
        c = self.counts
        m = {}
        for name in SELF_TIMED:
            m[f"{name}.calls"] = calls.get(name, 0)
        for name in SELF_TIMED + SELF_ONLY:
            m[f"{name}.self_s"] = selft.get(name, 0.0)
        for name in CLI_TOTALS:
            m[f"{name}_s"] = total.get(name, 0.0)
        cubes_calls = calls.get("cubes.cubes_at", 0)
        values_calls = calls.get("whitney.values", 0)
        m["cubes.partition_raw_sums.points"] = c["partition_points"]
        m["cubes.cover_size"] = c["cover_cubes"] / cubes_calls if cubes_calls else 0.0
        m["whitney.values.points"] = c["values_points"]
        m["whitney.points_per_call"] = (c["values_points"] / values_calls
                                        if values_calls else 0.0)
        m["clarke.op_evals_per_column"] = (c["jacobian_op_evals"] / c["jacobian_columns"]
                                           if c["jacobian_columns"] else 0.0)
        m["clarke.jacobian_mb"] = self.jacobian_bytes / 1e6
        m["courrege.rows_distinct"] = len(self.rows)
        m["courrege.atoms"] = c["atoms"]
        return m
