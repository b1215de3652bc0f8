"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of the package, at each module
boundary where another module or the benchmark calls them, with wrappers
that record one span per call: name, start, end, parent span, thread and a
context (workload, arm, seed, step).  Spans of one decision share its
context.  The skip-replanning guarantee (SRG) check runs on the program's
worker thread; its spans take the context of the decision whose belief it
was given.  Spans stay in memory, one column array per thread, until
`totals` aggregates them and `save` writes them out.

A wrapped function that no longer exists is reported through `omitted` and
its metrics are left out; the run carries on.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from array import array

import numpy as np

ARM_METRICS = (
    # (name, unit, better)
    ("envs.step.calls", "count", "lower"),
    ("envs.step.us", "us", "lower"),
    ("core.bayes_update.calls", "count", "lower"),
    ("core.bayes_update.us", "us", "lower"),
    ("core.particle_belief.calls", "count", "lower"),
    ("core.particle_belief.us", "us", "lower"),
    ("core.sample_transitions.calls", "count", "lower"),
    ("core.sample_transitions.us", "us", "lower"),
    ("topology.flip_to_closed.calls", "count", "lower"),
    ("topology.flip_to_closed.us", "us", "lower"),
    ("oracle.value.calls", "count", "lower"),
    ("oracle.value.us", "us", "lower"),
    ("oracle.nodes", "count", "lower"),
    ("bounds.plan.calls", "count", "lower"),
    ("bounds.plan.us", "us", "lower"),
    ("bounds.refinements", "count", "lower"),
    ("bounds.separated", "count", "higher"),
    ("bounds.separated_ratio", "ratio", "higher"),
    ("sparse.lb.calls", "count", "lower"),
    ("sparse.lb.us", "us", "lower"),
    ("sparse.ub.calls", "count", "lower"),
    ("sparse.ub.us", "us", "lower"),
    ("sparse.nodes", "count", "lower"),
    ("sparse.cache_hits", "count", "higher"),
    ("sparse.cache_hit_ratio", "ratio", "higher"),
    ("pomcp.search.calls", "count", "lower"),
    ("pomcp.search.us", "us", "lower"),
    ("pomcp.sims", "count", "lower"),
    ("pomcp.us_per_sim", "us", "lower"),
    ("pomcp.tree_nodes", "count", "lower"),
    ("pomcp.transitions", "count", "higher"),
    ("pomcp.stored_particles", "count", "lower"),
    ("replan.srg.calls", "count", "lower"),
    ("replan.srg.us", "us", "lower"),
    ("replan.srg_wait.us", "us", "lower"),
    ("replan.future_bounds.calls", "count", "lower"),
    ("replan.future_bounds.us", "us", "lower"),
    ("replan.certified_steps", "count", "higher"),
    ("replan.skipped_steps", "count", "higher"),
    ("replan.certificate_use_ratio", "ratio", "higher"),
    ("bench.episode.us", "us", "lower"),
    ("bench.self.us", "us", "lower"),
)
RUN_METRICS = (("trace.overhead", "ratio", "lower"),)


def per_layer_metrics(arms) -> list:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    return [(f"{arm}.{name}", unit, better)
            for arm in arms for name, unit, better in ARM_METRICS] \
        + list(RUN_METRICS)


def _bound(func, args, kwargs, name):
    return inspect.signature(func).bind(*args, **kwargs).arguments[name]


def _plan_counts(func, args, kwargs, result):
    counts = {"bounds.refinements": len(result.topology_trace) - 1,
              "bounds.separated": int(result.separation.separated)}
    evaluator = _bound(func, args, kwargs, "evaluator")
    hits = getattr(evaluator, "cache_hits", None)
    if hits is not None:
        counts["sparse.cache_hits"] = hits
        counts["sparse.cache_lookups"] = hits + evaluator.cache_misses
    return counts


def _search_counts(func, args, kwargs, result):
    counts = {"pomcp.sims": result.diagnostics.simulations,
              "pomcp.transitions": len(result.diagnostics.transitions)}
    tree = getattr(args[0], "tree", None)
    if tree is not None:
        counts["pomcp.tree_nodes"] = len(tree)
        # a node without a particle list stores none
        counts["pomcp.stored_particles"] = sum(
            len(getattr(node, "particles", ())) for node in tree.values())
    return counts


def _srg_counts(func, args, kwargs, result):
    return {"replan.certified_steps": result.certified_depth}


def _srg_belief(func, args, kwargs):
    return _bound(func, args, kwargs, "belief")


# span name -> (call sites as (module, attribute path), counts hook, context hook)
# A call site is where a caller looks the function up: a class attribute, or
# the name a consumer module imported.
SPANS = {
    "envs.step": (["envs:GridEnvironment.step"], None, None),
    "core.bayes_update": (["oracle:exact_bayes_update",
                           "replan:exact_bayes_update",
                           "topology:exact_bayes_update"], None, None),
    "core.particle_belief": (["core:ParticleBelief.__post_init__"], None, None),
    "core.sample_transitions": (["sparse:sample_transitions"], None, None),
    "topology.flip_to_closed": (["topology:Topology.flip_to_closed"], None,
                                None),
    "oracle.value": (["bounds:exact_aol_value", "bounds:exact_afo_value",
                      "replan:exact_continuation_value",
                      "oracle:exact_aol_value", "oracle:exact_afo_value",
                      "oracle:exact_q_star", "oracle:exact_continuation_value"],
                     None, None),
    "bounds.plan": (["bounds:plan_with_guarantees"], _plan_counts, None),
    "sparse.lb": (["sparse:estimate_lb"], None, None),
    "sparse.ub": (["sparse:estimate_ub"], None, None),
    "pomcp.search": (["pomcp:AtPomcp.search"], _search_counts, None),
    "replan.srg": (["replan:check_srg"], _srg_counts, _srg_belief),
    "replan.future_bounds": (["replan:future_bounds"], None, None),
}
# counted, not timed: one call per node of the oracle's recursion
COUNTS = {"oracle.nodes": ["oracle:expected_reward"]}
# metrics that exist only while the named source exists
DEPENDS = {
    "core.bayes_update": ("core.bayes_update.calls", "core.bayes_update.us"),
    "core.particle_belief": ("core.particle_belief.calls",
                             "core.particle_belief.us"),
    "core.sample_transitions": ("core.sample_transitions.calls",
                                "core.sample_transitions.us", "sparse.nodes"),
    "envs.step": ("envs.step.calls", "envs.step.us", "bench.self.us"),
    "topology.flip_to_closed": ("topology.flip_to_closed.calls",
                                "topology.flip_to_closed.us"),
    "oracle.value": ("oracle.value.calls", "oracle.value.us"),
    "oracle.nodes": ("oracle.nodes",),
    "bounds.plan": ("bounds.plan.calls", "bounds.plan.us",
                    "bounds.refinements", "bounds.separated",
                    "bounds.separated_ratio", "sparse.cache_hits",
                    "sparse.cache_hit_ratio"),
    "sparse.lb": ("sparse.lb.calls", "sparse.lb.us", "sparse.nodes"),
    "sparse.ub": ("sparse.ub.calls", "sparse.ub.us", "sparse.nodes"),
    "pomcp.search": ("pomcp.search.calls", "pomcp.search.us", "pomcp.sims",
                     "pomcp.us_per_sim", "pomcp.tree_nodes",
                     "pomcp.transitions", "pomcp.stored_particles"),
    "replan.srg": ("replan.srg.calls", "replan.srg.us",
                   "replan.certified_steps", "replan.certificate_use_ratio"),
    "replan.future_bounds": ("replan.future_bounds.calls",
                             "replan.future_bounds.us"),
}
# spans the harness opens itself
HARNESS_SPANS = ("bench.episode", "bench.decision")


class _ThreadLog:
    """Span columns of one thread, plus its stack of open spans and counts."""

    def __init__(self, thread: int):
        self.thread = thread
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.context = array("i")
        self.stack = []
        self.counts = {}


def _resolve(site: str):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(f"aolpomdp.{module_name}")
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"aolpomdp.{module_name} has no {path}")
    return owner, attr


class Tracer:
    """Spans and counts of one workload's traced rounds."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = list(SPANS) + list(HARNESS_SPANS)
        self._name_ids = {n: i for i, n in enumerate(self.names)}
        self.contexts = []            # (workload, arm, seed, step)
        self._context_ids = {}
        self._belief_contexts = {}    # id(belief) -> (belief, context)
        self.context = -1             # the main thread's current context
        self.omitted = []             # sites that no longer exist
        self.missing = set()          # span or count names with no site left
        self._logs = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        for name, (sites, counts_hook, context_hook) in SPANS.items():
            self._patch_sites(name, sites, lambda f: self._span_wrapper(
                f, name, counts_hook, context_hook))
        for name, sites in COUNTS.items():
            self._patch_sites(name, sites,
                              lambda f: self._count_wrapper(f, name))

    def _patch_sites(self, name, sites, make_wrapper) -> None:
        """Wrap each site now; a site that no longer exists is omitted."""
        found = 0
        for site in sites:
            try:
                owner, attr = _resolve(site)
            except (ImportError, AttributeError) as exc:
                self.omitted.append(f"{site} ({exc})")
                continue
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original))
            found += 1
        if not found:
            self.missing.add(name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording -------------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def set_context(self, arm: str, seed: int, step: int, belief=None) -> None:
        """Called by the main thread at each decision and each env step."""
        key = (self.workload, arm, seed, step)
        ctx = self._context_ids.get(key)
        if ctx is None:
            ctx = self._context_ids[key] = len(self.contexts)
            self.contexts.append(key)
        self.context = ctx
        if belief is not None:
            self._belief_contexts[id(belief)] = (belief, ctx)

    def _current_context(self, log: _ThreadLog) -> int:
        """The enclosing span's context, else the main thread's."""
        return log.context[log.stack[-1]] if log.stack else self.context

    def open(self, name: str, context: int = None) -> int:
        log = self._log()
        if context is None:
            context = self._current_context(log)
        index = len(log.start)
        log.name.append(self._name_ids[name])
        log.parent.append(log.stack[-1] if log.stack else -1)
        log.context.append(context)
        log.end.append(0)
        log.stack.append(index)
        log.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter_ns()
        log = self._local.log
        log.end[index] = end
        log.stack.pop()

    def count(self, name: str, value, context: int = None) -> None:
        log = self._log()
        if context is None:
            context = self._current_context(log)
        key = (context, name)
        log.counts[key] = log.counts.get(key, 0) + value

    def _span_wrapper(self, func, name, counts_hook, context_hook):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            context = None
            if context_hook is not None:
                entry = self._belief_contexts.get(
                    id(context_hook(func, args, kwargs)))
                context = entry[1] if entry is not None else None
            index = self.open(name, context)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if counts_hook is not None:
                ctx = self._local.log.context[index]
                for key, value in counts_hook(func, args, kwargs,
                                              result).items():
                    self.count(key, value, ctx)
            return result
        return wrapper

    def _count_wrapper(self, func, name):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.count(name, 1)
            return func(*args, **kwargs)
        return wrapper

    # -- results ---------------------------------------------------------------

    def _columns(self) -> dict:
        """All spans as numpy columns; parents index the joined columns."""
        cols = {f: np.concatenate([np.asarray(getattr(log, f))
                                   for log in self._logs])
                for f in ("start", "end", "name", "parent", "context")}
        cols["thread"] = np.concatenate([np.full(len(log.start), log.thread)
                                         for log in self._logs])
        offsets = np.cumsum([0] + [len(log.start) for log in self._logs])
        parent = cols["parent"].astype(np.int64)
        has_parent = parent >= 0
        parent[has_parent] += offsets[cols["thread"][has_parent]]
        cols["parent"] = parent
        return cols

    def totals(self, arm: str) -> dict:
        """Raw per-arm sums: '<span>.calls', '<span>.us' and every count."""
        cols = self._columns()
        # the trailing False is what context -1 (none set yet) looks up
        arm_of = np.array([c[1] == arm for c in self.contexts] + [False])
        mine = arm_of[cols["context"]]
        out = {}
        durations = (cols["end"] - cols["start"]) / 1000.0
        for name, i in self._name_ids.items():
            sel = mine & (cols["name"] == i)
            out[f"{name}.calls"] = int(sel.sum())
            out[f"{name}.us"] = float(durations[sel].sum())
        st = mine & (cols["name"] == self._name_ids["core.sample_transitions"])
        parents = cols["parent"][st]
        parents = parents[parents >= 0]
        sparse_ids = [self._name_ids["sparse.lb"], self._name_ids["sparse.ub"]]
        out["sparse.nodes"] = int(np.isin(cols["name"][parents],
                                          sparse_ids).sum())
        for log in self._logs:
            for (ctx, name), value in log.counts.items():
                if ctx >= 0 and self.contexts[ctx][1] == arm:
                    out[name] = out.get(name, 0) + value
        return out

    def save(self, path) -> None:
        cols = self._columns()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            contexts=np.array(json.dumps(self.contexts)),
                            **cols)
