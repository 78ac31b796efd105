"""Layer tracer: times the calls into each layer's public functions.

The tracer lives entirely in the benchmark.  While it is installed it
replaces a fixed list of public methods and module functions of the
program with timing wrappers, keeps a stack of open frames, and folds
every finished call into two tables:

* per *name* (``cluster.search``, ``tcam.array`` ...): calls, keys and
  inclusive host seconds, and calls per calling layer;
* per *layer* (``serve``, ``cluster``, ``tcam.chip`` ...): self seconds,
  i.e. a call's duration minus the part its traced children cover.

Every call made while a :meth:`LayerTracer.root` frame is open nests
under that root, so the layer self times plus the root's own ``bench``
self time add up to the root's wall time exactly (up to float rounding).

A call into the layer that is already on top of the stack is passed
through untimed, so re-entrant calls inside one layer are neither
double-counted nor split.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: Layers in report order; ``bench`` is the benchmark's own code.
LAYERS = (
    "bench",
    "serve",
    "cluster",
    "tcam.chip",
    "tcam.array",
    "kernels",
    "workloads.retrieval",
    "analysis",
)

ARRAY_PATHS = ("kernel", "faulty", "legacy")


def _n_keys(args) -> int:
    keys = args[1] if len(args) > 1 else ()
    return len(keys) if hasattr(keys, "__len__") else 0


def array_path(array) -> str:
    """Engine a batch on ``array`` takes, decided from outside: a
    non-empty fault map forces the per-key faulty loop, otherwise an
    attached kernel selects the compiled path."""
    faults = getattr(array, "faults", None)
    if faults is not None and not faults.is_empty():
        return "faulty"
    if getattr(array, "kernel", None) is not None:
        return "kernel"
    return "legacy"


class LayerTracer:
    """Per-layer call counts and self times from wrapped public calls."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_from: dict[tuple[str, str], int] = defaultdict(int)
        self.keys: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: dict[str, int] = defaultdict(int)
        self.wall_s = 0.0

    # -- installation -------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, layer: str, on_call=None) -> None:
        fn = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack or stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            parent = stack[-1][0]
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.calls_from[(name, parent)] += 1
                tracer.keys[name] += _n_keys(args)
                tracer.total_s[name] += dt
                tracer.self_s[layer] += dt - frame[1]
                stack[-1][1] += dt

        traced.__wrapped__ = fn
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _count_array_path(self, args) -> None:
        path = array_path(args[0])
        self.counts["path." + path] += 1
        self.counts["keys." + path] += _n_keys(args)

    def install(self) -> None:
        """Wrap the public entry points of every traced layer."""
        from repro.analysis import montecarlo
        from repro.cluster import updates
        from repro.cluster.fabric import TCAMFabric
        from repro.kernels.engine import KernelEngine
        from repro.serve.engine import ServeEngine
        from repro.tcam.array import TCAMArray
        from repro.tcam.chip import TCAMChip
        from repro.workloads.retrieval import RetrievalIndex

        if self._patches:
            return
        self._wrap(ServeEngine, "offer", "serve.offer", "serve")
        self._wrap(ServeEngine, "drain", "serve.drain", "serve")
        self._wrap(TCAMFabric, "search_batch", "cluster.search", "cluster")
        self._wrap(updates.UpdateEngine, "apply", "cluster.update", "cluster")
        self._wrap(updates, "age_and_repair", "cluster.repair", "cluster")
        self._wrap(TCAMChip, "search_batch", "tcam.chip", "tcam.chip")
        for attr in (
            "search_batch",
            "nearest_match_batch",
            "threshold_match_batch",
            "topk_match_batch",
        ):
            self._wrap(
                TCAMArray, attr, "tcam.array", "tcam.array", self._count_array_path
            )
        for attr in ("row", "window_row", "precompute"):
            self._wrap(KernelEngine, attr, "kernels", "kernels")
        self._wrap(RetrievalIndex, "query_topk", "workloads.retrieval.topk",
                   "workloads.retrieval")
        self._wrap(RetrievalIndex, "query_threshold", "workloads.retrieval.threshold",
                   "workloads.retrieval")
        self._wrap(montecarlo, "run_margin_mc", "analysis.mc", "analysis")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- recording ----------------------------------------------------------

    @contextmanager
    def root(self):
        """Open the ``bench`` root frame; every traced call nests under it."""
        if self._stack:
            raise RuntimeError("tracer root frames do not nest")
        frame = ["bench", 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield self
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.wall_s += dt
            self.self_s["bench"] += dt - frame[1]

    @contextmanager
    def tracing(self):
        """Install the wrappers and open a root frame for one block."""
        self.install()
        try:
            with self.root():
                yield self
        finally:
            self.uninstall()
