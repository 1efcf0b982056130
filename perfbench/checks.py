"""Output checks, computed apart from the program.

Each ``check_<workload>(stdout, facts)`` returns a list of failure
messages; an empty list means the printed output is right.  The printed
tables are parsed from the command's standard output and compared with
values the benchmark computes itself from the facts ``facts.py``
shipped (raw columns and coordinates), or with properties the paper's
method must have.  Nothing is compared with a stored copy of an earlier
output.
"""

import re

import numpy as np

EARTH_RADIUS_KM = 6371.0088
MATCH_RADIUS_KM = 40.0
PRINTED_APPS = {"Kad": "Kad", "Gnu": "Gnutella", "BT": "BitTorrent"}


def haversine_km(lat1, lon1, lat2, lon2):
    lat1, lon1, lat2, lon2 = (
        np.radians(np.asarray(v, dtype=float)) for v in (lat1, lon1, lat2, lon2)
    )
    a = (
        np.sin((lat2 - lat1) / 2.0) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def shape_checks(stdout):
    """Every ``--strict`` shape check printed True."""
    lines = [l for l in stdout.splitlines() if l.startswith("shape checks: ")]
    if len(lines) != 1:
        return ["no shape-check line in the output"]
    pairs = [item.split("=") for item in lines[0][len("shape checks: "):].split(", ")]
    return [f"shape check {name} is {value}" for name, value in pairs if value != "True"]


def _rows(stdout, first_field):
    return [l.split() for l in stdout.splitlines() if re.match(first_field, l)]


def _close(printed, value, decimals):
    return abs(float(printed) - value) <= 0.5 * 10.0 ** -decimals + 1e-9


def check_table1(stdout, facts):
    failures = []
    recount = facts["table1"]["table"]
    rows = {r[0]: r for r in _rows(stdout, r"(NA|EU|AS) .* measured\s*$")}
    if sorted(rows) != sorted(recount):
        return failures + [f"printed regions {sorted(rows)} != {sorted(recount)}"]
    for region, row in rows.items():
        printed = dict(zip(["Kad", "Gnu", "BT", "city", "state", "country"], row[1:7]))
        for column, value in printed.items():
            expected = recount[region][PRINTED_APPS.get(column, column)]
            if int(value) != expected:
                failures.append(f"{region} {column}: printed {value}, recounted {expected}")
    return failures


def check_figure2(stdout, facts):
    failures = shape_checks(stdout)
    doc = facts["figure2"]
    if doc["radius_km"] != MATCH_RADIUS_KM:
        failures.append(f"match radius {doc['radius_km']} km, expected 40 km")
    rows = {float(r[0]): r for r in _rows(stdout, r"\d+ +\d+ +[\d.]+ ")}
    pop_means = []
    for key, ases in sorted(doc["bandwidths"].items(), key=lambda kv: float(kv[0])):
        bandwidth = float(key)
        recalls, precisions, perfect, inferred, reference = [], [], [], [], []
        for asn, entry in ases.items():
            mine, ref = entry["inferred"], entry["reference"]
            if mine and ref:
                a, b = np.array(mine), np.array(ref)
                d = haversine_km(a[:, :1], a[:, 1:], b[:, 0][None], b[:, 1][None])
                hit_mine = int((d.min(axis=1) <= MATCH_RADIUS_KM).sum())
                hit_ref = int((d.min(axis=0) <= MATCH_RADIUS_KM).sum())
            else:
                hit_mine = hit_ref = 0
            recall = hit_ref / len(ref) if ref else 1.0
            precision = hit_mine / len(mine) if mine else 1.0
            for name, value in (("recall", recall), ("precision", precision)):
                if abs(entry[name] - value) > 1e-12:
                    failures.append(
                        f"AS{asn} at {bandwidth:g} km: program {name} "
                        f"{entry[name]:.4f}, recomputed {value:.4f}"
                    )
            recalls.append(recall)
            precisions.append(precision)
            perfect.append(bool(mine) and hit_mine == len(mine))
            inferred.append(len(mine))
            reference.append(len(ref))
        pop_means.append(float(np.mean(inferred)))
        row = rows.get(bandwidth)
        if row is None:
            failures.append(f"no printed row for {bandwidth:g} km")
            continue
        expected = [
            (1, len(ases), 0),
            (2, np.mean(inferred), 2),
            (3, np.mean(reference), 2),
            (4, np.mean(recalls), 3),
            (5, np.mean(precisions), 3),
            (6, np.mean(perfect), 3),
        ]
        for column, value, decimals in expected:
            if not _close(row[column], float(value), decimals):
                failures.append(
                    f"{bandwidth:g} km column {column}: printed {row[column]}, "
                    f"recomputed {float(value):.4f}"
                )
    if not all(a > b for a, b in zip(pop_means, pop_means[1:])):
        failures.append(f"mean PoPs per AS does not fall with bandwidth: {pop_means}")
    return failures


def check_figure1(stdout, facts):
    failures = shape_checks(stdout)
    doc = facts["figure1"]
    rows = {float(r[0]): r for r in _rows(stdout, r"\d+ +\d+ +\d+ +\d+ +[\d.e+-]+\s*$")}
    for key, piece in doc.items():
        bandwidth = float(key)
        pops = piece["pops"]
        row = rows.get(bandwidth)
        printed = (piece["peaks"], len(pops), piece["partitions"])
        if row is None or tuple(int(v) for v in row[1:4]) != printed:
            failures.append(f"{bandwidth:g} km: printed {row}, expected {printed}")
        elif row[4] != f"{piece['dmax']:.2e}":
            failures.append(f"{bandwidth:g} km: printed Dmax {row[4]}, grid max {piece['dmax']:.2e}")
        threshold = piece["alpha"] * piece["dmax"]
        for pop in pops:
            distance = float(
                haversine_km(pop["peak_lat"], pop["peak_lon"], pop["city_lat"], pop["city_lon"])
            )
            if distance > bandwidth:
                failures.append(
                    f"{bandwidth:g} km: {pop['city']} lies {distance:.1f} km from its peak"
                )
            if not pop["density"] > threshold:
                failures.append(f"{bandwidth:g} km: {pop['city']} density below alpha*Dmax")
        densities = [pop["density"] for pop in pops]
        if densities != sorted(densities, reverse=True):
            failures.append(f"{bandwidth:g} km: PoPs not sorted by density")
    listed = [l.split("|")[0].strip() for l in stdout.splitlines() if "|" in l]
    pops40 = doc["40.0"]["pops"]
    total = sum(pop["density"] for pop in pops40)
    expected = [[pop["city"], f"{pop['density'] / total:.3f}"] for pop in pops40]
    if [entry.rsplit(None, 1) for entry in listed if entry] != expected:
        failures.append("printed 40 km PoP list differs from the PoP densities")
    return failures


CHECKS = {"table1": check_table1, "figure2": check_figure2, "figure1": check_figure1}
