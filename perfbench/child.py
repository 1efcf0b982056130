"""One benchmark operation: a fresh interpreter running one command.

``run.py`` starts this file once per operation::

    python3 perfbench/child.py OUT.json TRACE -- <repro-eyeball arguments>

It imports ``repro.cli`` from the checkout's ``src/`` and calls
``repro.cli.main`` exactly as the ``repro-eyeball`` entry point does.
Around that call it notes, on the system-wide monotonic clock that the
parent also reads, when the import ended, when the command's shared
inputs existed (the first ``cached_scenario`` return; the end of the
import for commands that build no scenario) and when the rendered
output was written.  It also keeps the command's result objects.

After ``main`` returns, the facts the output checks need are taken from
those objects (see ``facts.py``) and written to OUT.json together with
the time and CPU this epilogue cost up to the file write, which the
parent subtracts.  Its memory is not subtracted: ``ru_maxrss`` includes
the epilogue.  With
TRACE=1 every layer entry point is wrapped first (``layers.py``) and
the recorded spans go into OUT.json as well.  The exit status is the
command's.
"""

import json
import os
import sys
import time

T_INTERPRETER = time.monotonic()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def main() -> int:
    out_path, trace = sys.argv[1], sys.argv[2] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    marks = {"interpreter": T_INTERPRETER}
    marks["import_start"] = time.monotonic()
    import repro.cli as cli
    marks["import_end"] = time.monotonic()
    results = {}
    recorder = None
    if trace:
        import layers

        recorder = layers.install(marks["import_start"], marks["import_end"])

    build = cli.cached_scenario

    def cached_scenario(config):
        scenario = build(config)
        marks.setdefault("setup_end", time.monotonic())
        results["scenario"] = scenario
        return scenario

    cli.cached_scenario = cached_scenario
    for name in ("run_table1", "run_figure1", "run_figure2"):
        run = getattr(cli, name)

        def keep(*args, _run=run, _name=name, **kwargs):
            results[_name] = _run(*args, **kwargs)
            return results[_name]

        setattr(cli, name, keep)
    from repro.experiments.scenario import Scenario

    location_sets = Scenario.peak_location_sets
    results["peak_sets"] = []

    def peak_location_sets(self, asns, bandwidth_km, *args, **kwargs):
        sets = location_sets(self, asns, bandwidth_km, *args, **kwargs)
        results["peak_sets"].append((bandwidth_km, sets))
        return sets

    Scenario.peak_location_sets = peak_location_sets
    emit = cli._emit

    def emitted(*args, **kwargs):
        status = emit(*args, **kwargs)
        sys.stdout.flush()
        marks["output_end"] = time.monotonic()
        return status

    cli._emit = emitted

    status = cli.main(argv)
    marks["main_end"] = time.monotonic()
    marks.setdefault("setup_end", marks["import_end"])
    cpu_start = time.process_time()
    import facts

    doc = {"status": status, "marks": marks, "facts": facts.collect(results)}
    if recorder is not None:
        doc["trace"] = recorder.document()
    body = json.dumps(doc)
    # The epilogue's own cost goes in last, after the document is
    # serialised, so that serialising is billed to the epilogue too.
    epilogue = {"epilogue_cpu_s": time.process_time() - cpu_start,
                "epilogue_end": time.monotonic()}
    with open(out_path, "w") as handle:
        handle.write(body[:-1] + ", " + json.dumps(epilogue)[1:])
    return status


if __name__ == "__main__":
    sys.exit(main())
