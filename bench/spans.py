"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of the six layers (measures, bases,
samplers, lsq, experiments, cli) from outside the package: each wrapper
replaces a name in the module where its caller looks it up, records a
span (id, parent, name, start, end, phase) and restores the original on
`uninstall`. Counts are recorded at the same boundaries. Spans of forked
pool workers are returned with each chunk's result and merged into the
parent's list, so one timeline covers every process.
"""

import functools
import os
import time
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor

# spans whose time is building a basis, a grid or a sampler table, not
# drawing or fitting; subtracted where a per-draw time is reported
BUILD_SPANS = ("bases.make_basis", "measures.refined_grid",
               "measures.build_density_sampler")


class Tracer:
    """Spans, counts and recorded values of one process.

    A span is the tuple (sid, parent, name, start, end, phase) with
    sid = (pid, sequence number); `phase` names the part of the run
    ("setup", "warm", "timed", "between") the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.values = {}
        self.designs = []
        self.stack = []
        self.phase = "warm"
        self.enabled = False
        self.capture_designs = False
        self._seq = 0
        self._patches = []
        self._inherited = []

    # -- recording ---------------------------------------------------------

    def count(self, name, amount=1):
        self.counts[(self.phase, name)] += amount

    def wrap(self, fn, name, after=None):
        """A function that runs `fn` inside a span called `name`; `after`
        sees (result, args) when the call returns normally."""
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._seq += 1
            sid = (os.getpid(), tracer._seq)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, start, end,
                                     tracer.phase))
            if after is not None:
                after(result, args)
            return result

        traced.tracer = tracer
        return traced

    def counted(self, fn, name, amount):
        """A function that adds amount(result) to count `name` per call."""
        tracer = self

        @functools.wraps(fn, updated=())
        def counting(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                tracer.count(name, amount(result))
            return result

        return counting

    def counted_raise(self, fn, name, exc_type):
        """A function that counts each `exc_type` raised through it."""
        tracer = self

        @functools.wraps(fn, updated=())
        def counting(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc_type:
                if tracer.enabled:
                    tracer.count(name)
                raise

        return counting

    # -- process boundaries ------------------------------------------------

    def begin_worker(self, parent):
        """Start a pool task in a forked child: set aside what the fork
        copied and hang the task's spans under the parent's open span.
        The copies stay referenced, because freeing them would write to
        every page they share with the parent."""
        self._inherited.append((self.spans, self.counts, self.designs))
        self.spans, self.counts, self.designs = [], Counter(), []
        self.stack = [parent]
        self.capture_designs = False

    def drain(self):
        shipped = (self.spans, dict(self.counts))
        self.spans, self.counts = [], Counter()
        return shipped

    def merge(self, shipped):
        """Add the spans and counts another process recorded."""
        spans, counts = shipped
        self.spans.extend(spans)
        self.counts.update(counts)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced name where its caller looks it up."""
        from dppls import bases, cli, experiments, lsq, measures, samplers
        from dppls.errors import DegeneratePointError

        w = self.wrap
        p = self._patch

        # measures
        for cls in (measures.StandardGaussian, measures.UniformInterval):
            p(cls, "gauss_quadrature",
              w(cls.gauss_quadrature, "measures.gauss_rule"))
        p(samplers, "build_density_sampler",
          w(samplers.build_density_sampler, "measures.build_density_sampler"))
        p(samplers, "refined_grid",
          w(samplers.refined_grid, "measures.refined_grid"))
        p(samplers, "GridDensitySampler",
          w(samplers.GridDensitySampler, "measures.grid_sampler"))

        # bases
        for cls in bases.BASIS_FAMILIES.values():
            p(cls, "feature_matrix",
              self.counted(cls.feature_matrix, "bases.feature_rows",
                           lambda phi: phi.shape[0]))
        p(experiments, "make_basis",
          w(experiments.make_basis, "bases.make_basis"))
        p(samplers, "extend_rotation",
          self.counted_raise(samplers.extend_rotation,
                             "bases.degenerate_points", DegeneratePointError))

        # samplers
        for name in ("sample_christoffel", "sample_dpp", "sample_volume",
                     "sample_repeated_dpp", "sample_conditioned"):
            p(samplers, name, w(getattr(samplers, name), f"samplers.{name}"))
        p(experiments, "draw_design",
          w(experiments.draw_design, "samplers.draw_design",
            after=self._after_design))
        p(experiments, "replicate_stream",
          w(experiments.replicate_stream, "samplers.replicate_stream"))

        # lsq
        gram = w(lsq.empirical_gram, "lsq.empirical_gram")
        p(lsq, "empirical_gram", gram)
        p(experiments, "empirical_gram", gram)
        p(experiments, "weighted_lsq_fit",
          w(experiments.weighted_lsq_fit, "lsq.weighted_lsq_fit"))
        p(experiments, "ErrorEvaluator",
          w(experiments.ErrorEvaluator, "lsq.ErrorEvaluator",
            after=self._after_evaluator))

        # experiments; CSV writing is the command line's output path
        p(experiments, "_run_chunk",
          w(experiments._run_chunk, "experiments._run_chunk"))
        p(experiments, "ProcessPoolExecutor", _traced_pool(self))
        p(experiments, "write_csv", w(experiments.write_csv, "cli.write_csv"))
        p(experiments, "minimal_stable_n",
          w(experiments.minimal_stable_n, "experiments.minimal_stable_n"))
        for name in ("error_table", "conjecture_check", "dump_design"):
            p(cli, name, w(getattr(cli, name), f"experiments.{name}"))

        # cli
        p(cli, "main", w(cli.main, "cli.main"))
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def _after_design(self, design, args):
        if design.sampler_id == "repeated-dpp-cond":
            self.count("samplers.cond_designs")
            self.count("samplers.cond_attempts", design.attempts)
        if self.capture_designs:
            self.designs.append((args[0], design.points, design.weights))

    def _after_evaluator(self, evaluator, args):
        self.values[f"lsq.evaluator_order.m{evaluator.basis.m}"] = \
            evaluator.rule.order


def _in_worker(job):
    """Pool task: run one traced chunk and return its spans with it."""
    parent, fn, task = job
    fn.tracer.begin_worker(parent)
    result = fn(task)
    return result, fn.tracer.drain()


def _traced_pool(tracer):
    class TracedPool(ProcessPoolExecutor):
        """Counts pool starts and ships each worker's spans back."""

        def __init__(self, *args, **kwargs):
            if tracer.enabled:
                tracer.count("experiments.pools_started")
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            if not (tracer.enabled and hasattr(fn, "tracer")):
                yield from super().map(fn, *iterables, **kwargs)
                return
            parent = tracer.stack[-1] if tracer.stack else None
            jobs = [(parent, fn, task) for task in iterables[0]]
            for result, shipped in super().map(_in_worker, jobs, **kwargs):
                tracer.merge(shipped)
                yield result

    return TracedPool


# ---------------------------------------------------------------------------
# analysis

def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{sid: duration minus the time its child spans cover}."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered(children.get(sid, ()), start, end)
            for sid, _, _, start, end, _ in spans}


def build_times(spans):
    """{sid: time spent in build spans (BUILD_SPANS) nested under it}."""
    parent_of = {s[0]: s[1] for s in spans}
    out = defaultdict(float)
    for sid, parent, name, start, end, _ in spans:
        if name in BUILD_SPANS:
            while parent is not None:
                out[parent] += end - start
                parent = parent_of.get(parent)
    return out
