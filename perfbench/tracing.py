"""Per-layer spans recorded from outside the program.

``installed(tracer)`` rebinds the public functions of each layer at the
names ``nomacast.montecarlo`` and ``nomacast.cli`` look them up, times each
call as a span, and restores the original bindings on exit.  A name that
``montecarlo`` reaches through a module alias (``tx.power_fraction``) is
rebound on that module.  A hook whose target no longer exists, or is no
longer reached from ``montecarlo``/``cli``, is reported as absent and the
metrics it feeds read zero; the run does not fail.

A span's self time is its duration minus the duration of the spans it
directly contains; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# (span key, layer, module defining the target, target name, consumer modules)
_MC = ("nomacast.montecarlo",)
_CLI = ("nomacast.cli",)
HOOKS = (
    ("rng.window_bits", "rng", "nomacast.rng", "window_bits", _MC),
    ("rng.bits_to_exponential", "rng", "nomacast.rng", "bits_to_exponential", _MC),
    ("rng.bits_to_normal", "rng", "nomacast.rng", "bits_to_normal", _MC),
    ("channel.channels_from_normals", "channel", "nomacast.channel",
     "channels_from_normals", _MC),
    ("transmission.power_fraction", "transmission", "nomacast.transmission",
     "power_fraction", _MC),
    ("transmission.time_fraction", "transmission", "nomacast.transmission",
     "time_fraction", _MC),
    ("transmission.noma_rate", "transmission", "nomacast.transmission", "noma_rate", _MC),
    ("transmission.oma_rate", "transmission", "nomacast.transmission", "oma_rate", _MC),
    ("transmission.secrecy_rate", "transmission", "nomacast.transmission",
     "secrecy_rate", _MC),
    ("montecarlo.estimate_many", "montecarlo", "nomacast.montecarlo", "estimate_many", _CLI),
    ("analysis.unicast_outage_prob", "analysis", "nomacast.analysis",
     "unicast_outage_prob", _CLI),
    ("analysis.secrecy_outage_prob", "analysis", "nomacast.analysis",
     "secrecy_outage_prob", _CLI),
    ("cli.emit_csv", "cli", "nomacast.cli", "emit_csv", _CLI),
)
# Counted, not timed: one count per process pool the Monte Carlo engine starts.
POOL_HOOK = ("montecarlo.pool_starts", "concurrent.futures", "ProcessPoolExecutor", _MC)


class Tracer:
    """In-memory span totals for one traced workload run."""

    def __init__(self):
        self.totals = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []

    def call(self, key, layer, fn, *args, **kwargs):
        """Run ``fn`` as a span named ``key`` belonging to ``layer``."""
        children = [0.0]
        self._stack.append(children)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dur
            self.totals[key] += dur
            self.calls[key] += 1
            self.self_time[layer] += dur - children[0]


def _window_words(fn):
    """64-bit words a window_bits call draws, from its count and width arguments."""
    sig = inspect.signature(fn)

    def words(args, kwargs, result):
        try:
            bound = sig.bind(*args, **kwargs).arguments
            return int(bound["count"]) * -(-int(bound["width"]) // 4) * 4
        except (TypeError, KeyError):
            return int(getattr(result, "size", 0))
    return words


def _targets(module, name, consumers):
    """(namespace, attribute) pairs through which consumers reach module.name."""
    original = getattr(module, name, None)
    if original is None:
        return None, []
    places = []
    for cname in consumers:
        consumer = importlib.import_module(cname)
        for attr, value in list(vars(consumer).items()):
            if value is original:
                places.append((consumer, attr))
            elif value is module and (module, name) not in places:
                places.append((module, name))
    return original, places


@contextmanager
def installed(tracer: Tracer, hooks=HOOKS, pool_hook=POOL_HOOK):
    """Rebind every hook onto ``tracer``; yields the keys of absent hooks."""
    saved, absent = [], []

    def bind(places, replacement):
        for obj, attr in places:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, replacement)

    try:
        for key, layer, modname, name, consumers in hooks:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                absent.append(key)
                continue
            original, places = _targets(module, name, consumers)
            if not places:
                absent.append(key)
                continue
            count = _window_words(original) if key == "rng.window_bits" else None
            bind(places, _timed(tracer, key, layer, original, count))
        if pool_hook is not None:
            key, modname, name, consumers = pool_hook
            original, places = _targets(importlib.import_module(modname), name, consumers)
            if places:
                bind(places, _counted(tracer, key, original))
            else:
                absent.append(key)
        yield absent
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _timed(tracer, key, layer, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(key, layer, fn, *args, **kwargs)
        if count is not None:
            tracer.counts["rng.words"] += count(args, kwargs, result)
        return result
    return wrapper


def _counted(tracer, key, fn):
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper
