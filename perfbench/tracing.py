"""Outside-in layer tracing for the chowstab benchmark.

Spans are recorded by wrappers that the benchmark installs around calls
into the program's modules; nothing inside `src/` knows about them.  A
hook replaces the wrapped object under every name that refers to it in
every loaded `chowstab` module, so a function imported by name into
another module (``_rref`` into stability, hilbert and testconfig) is
traced wherever it is looked up.  A hook whose target no longer exists
is reported as absent instead of failing the run.

A layer's self time is the duration of its spans minus the part covered
by child spans.  Work counts gathered around a call (bit sizes, cells)
run outside the span and are carved out of the parent span too, so they
land in ``trace.unattributed_s`` rather than in any layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field
from time import perf_counter

SPAN_CAP = 20000   # spans kept verbatim; later calls are only aggregated


def _max_bits(rows) -> int:
    return max((max(map(int.bit_length, row), default=0) for row in rows),
               default=0)


# work counts, gathered outside the span: before(tracer, args, kwargs) and
# after(tracer, args, kwargs, result)

def _rref_before(tr, args, kwargs):
    rows = args[0]
    tr.count("exactcore.rref.cells", len(rows) * (len(rows[0]) if rows else 0))


def _profile_before(tr, args, kwargs):
    rows, ncols = args[0], args[1]
    tr.count("exactcore.rank_profile.cells", len(rows) * ncols)
    tr.maximum("exactcore.rank_profile.max_bits_in", _max_bits(rows))


def _profile_after(tr, args, kwargs, result):
    tr.maximum("exactcore.rank_profile.max_bits_out", _max_bits(args[0]))


def _jet_rows_after(tr, args, kwargs, result):
    tr.count("hilbert.jet_rows.rows", len(result))


def _subspace_init_after(tr, args, kwargs, result):
    tr.count("stability.subspace.builds", 1)
    tr.op_subspaces.add(args[0].rref)


def _flow_after(tr, args, kwargs, result):
    tr.count("balance.flow.iterations", result.iterations)


def _df_error(tr):
    tr.count("testconfig.df.failed", 1)


@dataclass(frozen=True)
class Hook:
    layer: str
    module: str
    attr: str                 # "name" or "Class.method"
    before: object = None
    after: object = None
    on_error: object = None


HOOKS = (
    Hook("cli.main", "chowstab.cli", "main"),
    Hook("stability.classify", "chowstab.stability", "classify"),
    Hook("stability.subspace", "chowstab.stability", "Subspace.__init__",
         after=_subspace_init_after),
    Hook("stability.subspace", "chowstab.stability", "Subspace.contains"),
    Hook("stability.destabilizer", "chowstab.stability",
         "destabilizer_from_subspace"),
    Hook("stability.search", "chowstab.stability", "exhaustive_ops_search"),
    Hook("exactcore.rref", "chowstab.exactcore", "_rref",
         before=_rref_before),
    Hook("exactcore.rank_kernel", "chowstab.exactcore", "rank_kernel"),
    Hook("exactcore.rank_profile", "chowstab.exactcore", "int_rank_profile",
         before=_profile_before, after=_profile_after),
    Hook("exactcore.limit_subspace", "chowstab.exactcore", "limit_subspace"),
    Hook("exactcore.interpolate", "chowstab.exactcore", "interpolate_poly"),
    Hook("hilbert.jet_rows", "chowstab.hilbert", "_int_jet_rows",
         after=_jet_rows_after),
    Hook("testconfig.df", "chowstab.testconfig", "df_invariant",
         on_error=_df_error),
    Hook("testconfig.central_summary", "chowstab.testconfig",
         "_central_summary"),
    Hook("testconfig.family", "chowstab.testconfig", "moving_section_family"),
    Hook("testconfig.fibre", "chowstab.testconfig", "central_fibre_sections"),
    Hook("balance.flow", "chowstab.balance", "balance_flow",
         after=_flow_after),
)

LAYERS = tuple(dict.fromkeys(h.layer for h in HOOKS))
COUNTERS = (
    "exactcore.rref.cells",
    "exactcore.rank_profile.cells",
    "exactcore.rank_profile.max_bits_in",
    "exactcore.rank_profile.max_bits_out",
    "hilbert.jet_rows.rows",
    "stability.subspace.builds",
    "balance.flow.iterations",
    "testconfig.df.failed",
)


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder; `enabled` gates recording, not the hooks."""

    enabled: bool = False
    stats: dict = field(default_factory=lambda: {l: LayerStat() for l in LAYERS})
    counters: dict = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    spans: list = field(default_factory=list)   # (id, layer, op, t0, t1, parent id)
    dropped_spans: int = 0
    root_covered_s: float = 0.0   # wall inside depth-0 calls, counting included
    bookkeeping_s: float = 0.0    # time spent gathering counts
    distinct_subspaces: int = 0
    op_subspaces: set = field(default_factory=set)
    _stack: list = field(default_factory=list)
    _op: int = -1
    _next_id: int = 0

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: int) -> None:
        if value > self.counters[name]:
            self.counters[name] = value

    def begin_op(self, index: int) -> None:
        self._op = index
        self.op_subspaces = set()

    def end_op(self) -> None:
        self.distinct_subspaces += len(self.op_subspaces)
        self.op_subspaces = set()

    def wrap(self, hook: Hook, fn):
        stat = self.stats[hook.layer]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            b0 = perf_counter()
            if hook.before is not None:
                hook.before(self, args, kwargs)
            parent = self._stack[-1] if self._stack else None
            frame = [0.0, self._next_id]   # child-covered seconds, span id
            self._next_id += 1
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter()
                self._finish(stat, hook, frame, parent, b0, t0, t1)
                if hook.on_error is not None:
                    hook.on_error(self)
                raise
            t1 = perf_counter()
            if hook.after is not None:
                hook.after(self, args, kwargs, result)
            self._finish(stat, hook, frame, parent, b0, t0, t1)
            return result

        return functools.wraps(fn)(traced)

    def _finish(self, stat, hook, frame, parent, b0, t0, t1) -> None:
        self._stack.pop()
        b1 = perf_counter()
        stat.calls += 1
        stat.self_s += (t1 - t0) - frame[0]
        self.bookkeeping_s += (b1 - b0) - (t1 - t0)
        if parent is not None:
            parent[0] += b1 - b0
        else:
            self.root_covered_s += b1 - b0
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[1], hook.layer, self._op, t0, t1,
                               parent[1] if parent is not None else None))
        else:
            self.dropped_spans += 1

    def layer_metrics(self, wall_s: float) -> dict:
        out = {}
        for layer, st in self.stats.items():
            out[f"{layer}.calls"] = (st.calls, "count")
            out[f"{layer}.self_s"] = (st.self_s, "s")
            out[f"{layer}.share"] = (st.self_s / wall_s if wall_s else 0.0,
                                     "ratio")
        units = {"exactcore.rank_profile.max_bits_in": "bits",
                 "exactcore.rank_profile.max_bits_out": "bits"}
        for name, value in self.counters.items():
            out[name] = (value, units.get(name, "count"))
        builds = self.counters["stability.subspace.builds"]
        out["stability.subspace.distinct_ratio"] = (
            self.distinct_subspaces / builds if builds else 0.0, "ratio")
        # time outside every depth-0 span, plus all counting time
        out["trace.unattributed_s"] = (
            wall_s - self.root_covered_s + self.bookkeeping_s, "s")
        return out


class Installed:
    """Hooks patched into the loaded chowstab modules; `remove` undoes them."""

    def __init__(self, tracer: Tracer):
        self.patches = []          # (owner, name, original)
        self.absent = []
        for hook in HOOKS:
            try:
                self._install(tracer, hook)
            except (ImportError, AttributeError):
                self.absent.append(f"{hook.module}.{hook.attr}")

    def _install(self, tracer: Tracer, hook: Hook) -> None:
        mod = importlib.import_module(hook.module)
        if "." in hook.attr:
            cls_name, meth = hook.attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__.get(meth)
            if orig is None:
                raise AttributeError(hook.attr)
            self.patches.append((cls, meth, orig))
            setattr(cls, meth, tracer.wrap(hook, orig))
            return
        orig = getattr(mod, hook.attr)
        wrapped = tracer.wrap(hook, orig)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == "chowstab"
                                 or name.startswith("chowstab.")):
                continue
            for attr, value in list(vars(m).items()):
                if value is orig:
                    self.patches.append((m, attr, orig))
                    setattr(m, attr, wrapped)

    def remove(self) -> None:
        for owner, name, orig in reversed(self.patches):
            setattr(owner, name, orig)
        self.patches = []
