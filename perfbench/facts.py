"""Facts for the output checks, taken from a finished command's objects.

``child.py`` calls :func:`collect` after ``repro.cli.main`` returned.
Only raw material leaves the program: per-peer columns are recounted
here with NumPy rather than through the program's own profile and
classifier, and the PoP location sets are shipped as coordinates so
that ``checks.py`` can match them itself.  Program-computed values that
the checks compare against (per-AS recall and precision, PoP lists) are
shipped under their own keys.
"""

import numpy as np

LEVELS = ("city", "state", "country", "continent")
REGIONS = ("NA", "EU", "AS")


def collect(results):
    facts = {}
    if "run_table1" in results:
        facts["table1"] = table1_recount(results["scenario"].dataset)
    if "run_figure2" in results:
        facts["figure2"] = figure2_sets(
            results["run_figure2"], results["peak_sets"]
        )
    if "run_figure1" in results:
        facts["figure1"] = figure1_pops(results["run_figure1"])
    return facts


def _codes(column):
    return np.unique(np.asarray(column).astype(str), return_inverse=True)


def _per_as_top(as_index, keys, n_keys):
    """Per AS: peers in its most common key, and that key (ties -> lowest)."""
    pair = np.unique(as_index.astype(np.int64) * n_keys + keys, return_counts=True)
    codes, counts = pair
    owner = codes // n_keys
    starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    best = np.maximum.reduceat(counts, starts)
    # first key reaching the per-AS maximum; codes are sorted key-minor
    hits = counts == np.repeat(best, np.diff(np.r_[starts, counts.size]))
    first = np.minimum.reduceat(np.where(hits, codes, np.iinfo(np.int64).max), starts)
    return best, first % n_keys


def table1_recount(dataset):
    """Table 1 recomputed from the target dataset's per-peer columns.

    An AS belongs to the continent holding most of its peers and sits at
    the smallest region (city, state, country, continent) holding more
    than 95% of them; it is global otherwise.
    """
    groups = [target.group.peers for target in dataset.ases.values()]
    sizes = np.array([len(peers.ips) for peers in groups])
    as_index = np.repeat(np.arange(len(groups)), sizes)
    column = {
        name: np.concatenate([getattr(peers, name) for peers in groups])
        for name in ("city", "state", "country", "continent")
    }
    membership = np.concatenate([peers.membership for peers in groups])
    apps = list(dataset.app_names)
    country_names, country = _codes(column["country"])
    _, state = _codes(column["state"])
    _, city = _codes(column["city"])
    continent_names, continent = _codes(column["continent"])
    n_state = int(state.max()) + 1
    n_city = int(city.max()) + 1
    state_key = country.astype(np.int64) * n_state + state
    city_key = state_key * n_city + city
    level_keys = {
        "city": np.unique(city_key, return_inverse=True)[1],
        "state": np.unique(state_key, return_inverse=True)[1],
        "country": country,
        "continent": continent,
    }
    level_of = np.full(len(groups), "global", dtype=object)
    undecided = np.ones(len(groups), dtype=bool)
    for level in LEVELS:
        keys = level_keys[level]
        top, _ = _per_as_top(as_index, keys, int(keys.max()) + 1)
        won = undecided & (top / sizes > 0.95)
        level_of[won] = level
        undecided &= ~won
    _, majority = _per_as_top(as_index, continent, len(continent_names))
    home = continent_names[majority]
    peers_by_app = np.add.reduceat(membership.astype(np.int64), np.r_[0, np.cumsum(sizes)[:-1]])
    table = {}
    for region in REGIONS:
        mine = home == region
        row = {app: int(peers_by_app[mine, i].sum()) for i, app in enumerate(apps)}
        for level in ("city", "state", "country"):
            row[level] = int(np.sum(mine & (level_of == level)))
        table[region] = row
    return {"apps": apps, "table": table, "peers": int(sizes.sum())}


def figure2_sets(result, peak_sets):
    """Inferred and reference PoP coordinates per AS and bandwidth, with
    the recall and precision the program computed from them."""
    inferred = {bandwidth: sets for bandwidth, sets in peak_sets}
    out = {"radius_km": result.match_radius_km, "bandwidths": {}}
    for bandwidth, report in sorted(result.reports.items()):
        ases = {}
        for asn, match in report.results.items():
            ases[str(asn)] = {
                "inferred": [list(map(float, p)) for p in inferred[bandwidth][asn]],
                "reference": [list(map(float, p)) for p in result.reference.coordinates_of(asn)],
                "recall": match.recall,
                "precision": match.precision,
            }
        out["bandwidths"][str(bandwidth)] = ases
    return out


def figure1_pops(result):
    """Per bandwidth: peak count, Dmax, alpha and every PoP with its
    city and peak coordinates, in the program's order."""
    out = {}
    for bandwidth, piece in sorted(result.slices.items()):
        pops = piece.pop_footprint
        out[str(bandwidth)] = {
            "peaks": len(piece.footprint.peaks),
            "partitions": piece.partition_count,
            "dmax": float(np.max(piece.footprint.grid.values)),
            "alpha": pops.alpha,
            "pops": [
                {
                    "city": pop.city.name,
                    "city_lat": pop.city.lat,
                    "city_lon": pop.city.lon,
                    "peak_lat": pop.peak.lat,
                    "peak_lon": pop.peak.lon,
                    "density": pop.density,
                }
                for pop in pops.pops
            ],
        }
    return out
