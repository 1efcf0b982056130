"""Show that every output check catches a doctored output.

::

    python3 perfbench/doctor.py [--seed 5] [--workloads table1 figure2 figure1]

Runs each workload's command once, checks that its real output passes,
then applies each doctoring below to a copy of the printed output or of
the facts and shows the check that rejects it.  Exits 1 if the real
output fails or any doctored one passes.
"""

import argparse
import copy
import os
import re
import sys

import checks
import run


def _sub(pattern, replace):
    def doctor(text, facts):
        doctored, count = re.subn(pattern, replace, text, count=1, flags=re.M)
        if count != 1:
            raise ValueError(f"doctoring pattern {pattern!r} matched nothing")
        return doctored, facts
    return doctor


def _facts(edit):
    def doctor(text, facts):
        facts = copy.deepcopy(facts)
        edit(facts)
        return text, facts
    return doctor


def _first_as(facts, bandwidth):
    return next(iter(facts["figure2"]["bandwidths"][bandwidth].values()))


def _bump(match):
    return match.group(1) + str(int(match.group(2)) + 1)


def _widen_80km(facts):
    for entry in facts["figure2"]["bandwidths"]["80.0"].values():
        entry["inferred"] = entry["inferred"] * 4


def _far_city(facts):
    pop = facts["figure1"]["40.0"]["pops"][0]
    pop["city_lat"] += 1.0  # about 111 km north of its peak


def _thin_pop(facts):
    piece = facts["figure1"]["40.0"]
    piece["pops"][-1]["density"] = piece["alpha"] * piece["dmax"] / 2


def _swap_pops(facts):
    pops = facts["figure1"]["20.0"]["pops"]
    pops[0], pops[1] = pops[1], pops[0]


DOCTORINGS = {
    "table1": {
        "NA Kad peers +1": _sub(r"^(NA +)(\d+)", _bump),
        "EU country-level ASes +1": _sub(
            r"^(EU +\d+ +\d+ +\d+ +\d+ +\d+ +)(\d+)", _bump),
        "AS city-level ASes +1": _sub(r"^(AS +\d+ +\d+ +\d+ +)(\d+)", _bump),
    },
    "figure2": {
        "program precision off on one AS": _facts(
            lambda f: _first_as(f, "10.0").update(precision=_first_as(f, "10.0")["precision"] - 0.25)),
        "printed 10 km mean recall +0.01": _sub(
            r"^(10 +\d+ +[\d.]+ +[\d.]+ +)([\d.]+)",
            lambda m: m.group(1) + f"{float(m.group(2)) + 0.01:.3f}"),
        "more PoPs per AS at 80 km than at 40 km": _facts(_widen_80km),
        "a shape check printed False": _sub(r"=True", "=False"),
    },
    "figure1": {
        "a PoP's city 111 km from its peak": _facts(_far_city),
        "a PoP density below alpha*Dmax": _facts(_thin_pop),
        "PoPs out of density order": _facts(_swap_pops),
        "printed 20 km peak count +1": _sub(r"^(20 +)(\d+)", _bump),
    },
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--workloads", nargs="*", default=list(DOCTORINGS))
    parser.add_argument("--figure2-seed", type=int, default=None,
                        help="run figure2 on this scenario seed instead of its fixed one")
    args = parser.parse_args(argv)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    status = 0
    for workload in args.workloads:
        command = [word.format(seed=args.seed) for word in run.WORKLOADS[workload][0]]
        if args.figure2_seed is not None and workload == "figure2":
            command[command.index("--seed") + 1] = str(args.figure2_seed)
        out_path = os.path.join(run.OUT_DIR, f"doctor-{workload}-{args.seed}.json")
        _, text, doc, _ = run.run_command(command, 0, out_path)
        check = checks.CHECKS[workload]
        failures = check(text, doc["facts"])
        print(f"{workload} ({' '.join(command)}): real output "
              + ("passes" if not failures else f"FAILS: {failures[:3]}"))
        status |= bool(failures)
        for name, doctor in DOCTORINGS[workload].items():
            failures = check(*doctor(text, doc["facts"]))
            verdict = f"caught: {failures[0]}" if failures else "NOT CAUGHT"
            print(f"  {name}: {verdict}")
            status |= not failures
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
