"""Steadiness check: sets of benchmark runs, compared with each other.

::

    # one set: every workload on each seed, plus the calibration kernel
    python3 perfbench/steady.py run --out .perfbench/set-a.json [--seeds 1-10]
    # ... later, on the same code ...
    python3 perfbench/steady.py run --out .perfbench/set-b.json
    # medians, quartiles and set-to-set differences beside each bound
    python3 perfbench/steady.py compare .perfbench/set-a.json .perfbench/set-b.json

Within a set the runs go seed by seed, each seed through every workload
in turn, so that drift of the machine touches all workloads alike.  The
calibration kernel (a pure-Python loop and a NumPy FFT, each in a fresh
interpreter) is timed at the start and the end of every set: when the
kernel moved between two sets as much as the benchmark did, the machine
moved, not the program.  ``spread`` is the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median; ``change`` is the second set's median over the first's,
minus one.  Bounds come from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CALIBRATION = {
    "python_loop_s": (
        "import time\n"
        "t = time.perf_counter()\n"
        "total = 0\n"
        "for i in range(10_000_000):\n"
        "    total += i\n"
        "print(time.perf_counter() - t)\n"
    ),
    "numpy_fft_s": (
        "import time, numpy as np\n"
        "grid = np.random.default_rng(0).random((1024, 1024))\n"
        "t = time.perf_counter()\n"
        "for _ in range(20):\n"
        "    np.fft.irfft2(np.fft.rfft2(grid), grid.shape)\n"
        "print(time.perf_counter() - t)\n"
    ),
}


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def calibrate(repeats=3):
    times = {}
    for name, code in CALIBRATION.items():
        times[name] = [
            float(subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(repeats)
        ]
    return times


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(args):
    spec = benchmark_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    doc = {"started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "seconds": spec["run_seconds"], "runs": {}, "calibration": {}}
    doc["calibration"]["start"] = calibrate()
    for seed in seed_range(args.seeds):
        for workload in workloads:
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            started = time.monotonic()
            result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            line = result.stdout.strip().splitlines()[-1] if result.stdout.strip() else "{}"
            record = dict(json.loads(line), seed=seed, exit=result.returncode,
                          run_wall_s=time.monotonic() - started)
            doc["runs"].setdefault(workload, []).append(record)
            print(f"{workload} seed {seed}: {line}", flush=True)
    doc["calibration"]["end"] = calibrate()
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1)
    print(summary([doc], spec))
    return 0


def stats(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def summary(docs, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = ["workload  metric        bound  " + "  ".join(
        f"set{i + 1}: median [q1, q3] spread" for i in range(len(docs))
    ) + ("  change" if len(docs) == 2 else "")]
    for workload in docs[0]["runs"]:
        for metric, bound in bounds.items():
            row, medians = [], []
            for doc in docs:
                values = [r["metrics"][metric]["value"] for r in doc["runs"].get(workload, [])
                          if metric in r.get("metrics", {})]
                if not values:
                    row.append("-")
                    continue
                median, q1, q3, spread = stats(values)
                medians.append(median)
                row.append(f"{median:9.3f} [{q1:.3f}, {q3:.3f}] {spread:6.1%}")
            change = f"  {medians[1] / medians[0] - 1:+6.1%}" if len(medians) == 2 else ""
            lines.append(f"{workload:9} {metric:13} {bound:5.0%}  " + "  ".join(row) + change)
        for index, doc in enumerate(docs):
            runs = doc["runs"].get(workload, [])
            attempted = sum(r.get("attempted", 0) for r in runs)
            failed = sum(r.get("failed", 0) for r in runs)
            wrong = sum(1 for r in runs if not r.get("correct", False) or r["exit"] != 0)
            lines.append(f"{workload:9} set{index + 1}: {len(runs)} runs, {attempted} operations, "
                         f"{failed} failed, {wrong} runs not correct or not exited 0, "
                         f"longest run {max((r['run_wall_s'] for r in runs), default=0):.1f} s")
    for index, doc in enumerate(docs):
        for when, kernels in doc["calibration"].items():
            text = ", ".join(
                f"{name} {statistics.median(times):.3f} s (min {min(times):.3f}, max {max(times):.3f})"
                for name, times in kernels.items()
            )
            lines.append(f"calibration set{index + 1} {when}: {text}")
    return "\n".join(lines)


def compare(args):
    docs = []
    for path in args.sets:
        with open(path) as handle:
            docs.append(json.load(handle))
    print(summary(docs, benchmark_spec()))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    one = sub.add_parser("run", help="run one set and summarise it")
    one.add_argument("--out", required=True)
    one.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    one.add_argument("--workloads", nargs="*")
    two = sub.add_parser("compare", help="compare sets written by 'run'")
    two.add_argument("sets", nargs="+")
    args = parser.parse_args(argv)
    return run_set(args) if args.action == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
