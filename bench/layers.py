"""Per-layer tracing for the traced benchmark run.

The tracer wraps public entry points of the injurylab modules from the
outside, so nothing under ``src/`` changes.  Each wrapped call records
its calls, total time and self time (total minus the time spent in
wrapped calls below it).  ``LAYERS`` names each layer after the module
it lives in and records which end-to-end metric on which workload a
change to that layer should move.

Layer times use ``time.perf_counter``.  The CPU clock that times the
end-to-end metrics costs about five times as much per call, and in the
single-threaded, CPU-bound child the two clocks agree.  ``run.py``
scales the layer times by the same calibration as the other times.

Ordinal arithmetic is deliberately not wrapped: it runs per comparison,
and wrapping its dunder methods would swamp the traced run.  Its cost
stays inside the self time of whichever layer calls it.
"""

import collections
import functools
import importlib
import time

TREE = "stages_per_s on campaign-low2 and campaign-nonlow-alpha; " \
       "no change on campaign-low-alpha"
ENGINE = "stages_per_s on its own campaign"
EMIT = "stages_per_s and peak_rss_mb on campaign-low2 most, " \
       "then campaign-nonlow-alpha"
READ = "stages_per_s on verify-trace only"
REPLAY = "stages_per_s on campaign-low2, campaign-nonlow-alpha " \
         "and verify-trace"
OPPONENT = "stages_per_s on campaign-low-alpha"

# (layer name, module, attribute path, end-to-end metric it should move)
LAYERS = (
    ("cli.main", "cli", "main",
     "root of every call; its self time is argument parsing, scenario "
     "loading and report text"),
    ("tree.run_stage", "tree", "StrategyTree.run_stage", TREE),
    ("tree.select_actor", "tree", "StrategyTree.select_actor", TREE),
    ("nonlow_low2.run", "nonlow_low2", "run", ENGINE),
    ("low_alpha.run", "low_alpha", "run", ENGINE),
    ("nonlow_alpha.run", "nonlow_alpha", "run", ENGINE),
    ("trace.emit", "trace", "RunTrace.emit", EMIT),
    ("trace.to_text", "trace", "RunTrace.to_text", EMIT),
    ("cli.digest", "cli", "digest", EMIT),
    ("trace.from_text", "trace", "RunTrace.from_text", READ),
    # cli imports reduce_summary by name, so the wrapper goes on cli's copy.
    ("trace.reduce_summary", "cli", "reduce_summary", READ),
    ("nonlow_low2._Replay", "nonlow_low2", "_Replay.__init__", REPLAY),
    ("low_alpha._LowReplay", "low_alpha", "_LowReplay.__init__",
     "stages_per_s on campaign-low-alpha"),
    ("nonlow_alpha._CombReplay", "nonlow_alpha", "_CombReplay.__init__",
     REPLAY),
    ("nonlow_low2.verify_main_lemma_claims", "nonlow_low2",
     "verify_main_lemma_claims", REPLAY),
    ("low_alpha.verify_lowness_budget", "low_alpha",
     "verify_lowness_budget", "stages_per_s on campaign-low-alpha"),
    ("nonlow_alpha.verify_combined_bounds", "nonlow_alpha",
     "verify_combined_bounds", REPLAY),
    ("cli.worst_ratio", "cli", "worst_ratio",
     "stages_per_s on the three campaigns; verify-trace never calls it"),
    ("approximation.delta2_value", "approximation",
     "DeltaTwoAdversary.value", OPPONENT),
    ("approximation.bca_value", "approximation",
     "BoundedCaAdversary.value", OPPONENT),
    ("functional.advance", "functional", "FunctionalRun.advance", OPPONENT),
    ("functional.events_at", "functional", "EnumerableSet.events_at",
     OPPONENT),
    ("functional.max_at", "functional", "EnumerableSet.max_at", OPPONENT),
    ("functional.members_at", "functional", "EnumerableSet.members_at",
     OPPONENT),
)

REPLAY_LAYERS = ("nonlow_low2._Replay", "low_alpha._LowReplay",
                 "nonlow_alpha._CombReplay")


class Tracer:
    """Calls, total and self time per layer, plus exact event counts.

    Bookkeeping done after a wrapped call returns (counting events by
    kind, measuring text size) is charged to no layer: its duration is
    added to the caller's child time, so it leaves every self time alone
    and shows only in the overall tracing overhead.
    """

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in LAYERS}
        self.kinds = collections.Counter()
        self.stages = 0
        self.text_bytes = 0
        self.advance_changed = 0
        self._stack = [0.0]

    def _wrap(self, name, fn, after=None):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
            if after is not None:
                t1 = clock()
                after(result, args)
                stack[-1] += clock() - t1
            return result
        return wrapper

    def _count_trace(self, trace, args):
        self.kinds.update(e.kind for e in trace.events)
        self.stages += trace.stages

    def _count_read(self, trace, args):
        self._count_trace(trace, args)
        self.text_bytes += len(args[-1])

    def _count_text(self, text, args):
        self.text_bytes += len(text)

    def _count_advance(self, changed, args):
        self.advance_changed += bool(changed)

    def install(self):
        """Wrap every layer in the imported injurylab package."""
        after = {"nonlow_low2.run": self._count_trace,
                 "low_alpha.run": self._count_trace,
                 "nonlow_alpha.run": self._count_trace,
                 "trace.from_text": self._count_read,
                 "trace.to_text": self._count_text,
                 "functional.advance": self._count_advance}
        for name, module, path, _ in LAYERS:
            owner = importlib.import_module(f"injurylab.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__,
                                                 after.get(name)))
            else:
                wrapped = self._wrap(name, raw, after.get(name))
            setattr(owner, attr, wrapped)

    def report(self) -> dict:
        return {"layers": self.stats, "kinds": dict(self.kinds),
                "stages": self.stages, "text_bytes": self.text_bytes,
                "advance_changed": self.advance_changed}
