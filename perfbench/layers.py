"""Span recording around each layer's public entry points.

:func:`install` wraps the functions below wherever ``repro`` modules
bind them (``from x import f`` copies a reference, so every module
attribute holding the original is replaced) and the ``render`` methods
of the experiment results.  Each call becomes a span held in memory as
``[layer, start, end, parent]``; :meth:`Recorder.document` hands them
to ``child.py``, which writes them out when the command has finished.
The program's own code is not changed.
"""

import functools
import importlib
import sys
import time

#: layer name -> entry points, as "module:attribute" or "module:Class.method"
LAYERS = {
    "geo.world": ["repro.geo.world:generate_world"],
    "net.ecosystem": [
        "repro.net.ecosystem:generate_ecosystem",
        "repro.net.italy:italy_ecosystem",
    ],
    "crawl.population": ["repro.crawl.population:generate_population"],
    "crawl.crawl": ["repro.crawl.crawler:run_crawl"],
    "geodb.build": ["repro.geodb.synth:build_database"],
    "pipeline.condition": ["repro.pipeline.dataset:build_target_dataset"],
    "core.kde": ["repro.core.kde:compute_kde"],
    "core.contour": ["repro.core.contours:footprint_contour"],
    "core.peaks": ["repro.core.peaks:find_peaks"],
    "core.pop": ["repro.core.pop:extract_pop_footprint"],
    "validation.reference": ["repro.experiments.figure2:reference_for_scenario"],
    "validation.match": ["repro.validation.matching:match_pop_sets"],
    "experiments.compute": [
        "repro.experiments.table1:run_table1",
        "repro.experiments.figure2:run_figure2",
        "repro.experiments.figure1:run_figure1",
    ],
    "experiments.render": [
        "repro.experiments.table1:Table1Result.render",
        "repro.experiments.figure2:Figure2Result.render",
        "repro.experiments.figure1:Figure1Result.render",
    ],
}

#: Section 4.1's peak selection threshold, as a share of Dmax.
ALPHA = 0.01


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {
            "kde_cells": 0,
            "peaks_found": 0,
            "peaks_selected": 0,
            "crawled_peers": 0,
        }

    def wrap(self, layer, function, tally=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([layer, time.monotonic(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.monotonic()
            if tally is not None:
                tally(self.counts, result, args, kwargs)
            return result

        return wrapper

    def document(self):
        return {"spans": self.spans, "counts": self.counts}


def _kde_cells(counts, grid, args, kwargs):
    counts["kde_cells"] += int(grid.values.size)


def _peaks(counts, peaks, args, kwargs):
    grid = args[0] if args else kwargs["grid"]
    threshold = ALPHA * float(grid.values.max()) if grid.values.size else 0.0
    counts["peaks_found"] += len(peaks)
    counts["peaks_selected"] += sum(1 for peak in peaks if peak.density > threshold)


def _crawled(counts, dataset, args, kwargs):
    counts["crawled_peers"] += len(args[0] if args else kwargs["sample"])


TALLIES = {"core.kde": _kde_cells, "core.peaks": _peaks, "pipeline.condition": _crawled}


def install(import_start, import_end):
    """Wrap every entry point in :data:`LAYERS`; the import of
    ``repro.cli`` is the first span.  Raises if an entry point is gone,
    so that a renamed layer cannot drop out of the trace unnoticed."""
    recorder = Recorder()
    recorder.spans.append(["startup.import", import_start, import_end, -1])
    wrappers = {}
    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for name in classes:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            wrapper = recorder.wrap(layer, original, TALLIES.get(layer))
            if classes:
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(original)] = wrapper
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for key, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, key, wrappers[id(value)])
    return recorder
