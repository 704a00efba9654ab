"""Correctness checks on the outputs of each timed unit.

Every seed gets the invariant checks: labels are valid, the verdict
agrees with the measured error against epsilon, every bound curve is
present, finite and as long as the time grid, and the assembled bound
dominates the error whenever the hypotheses hold.  At the default seed
the checked fields must also match ``references.json`` to 1e-8
relative, the value of the package's own ``CROSS_CHECK_TOL``: a
numeric list is compared in the max norm relative to its largest
reference entry, a scalar relative to its own magnitude.
"""

import math

REFERENCE_TOL = 1e-8
SCALAR_FLOOR = 1e-12
DOMINATION_SLACK = 1e-8
VERDICTS = ("reduced", "not-reduced", "hypothesis-failed")
REDUCE_CURVES = ("error_max", "bound_general", "bound_specialized",
                 "delta1_measured", "delta1_duhamel", "delta2")
# Every 25th point of the dense Ehrenfest curves keeps the file small.
EHRENFEST_STRIDE = 25


def checked_fields(mode: str, result: dict) -> dict:
    """The part of a unit's result that the reference pins down."""
    if mode == "reduce":
        keep = ("verdict", "times", "E_used", "hypotheses_hold", "samples",
                "epsilon") + REDUCE_CURVES
    elif mode == "squeeze":
        keep = ("rows", "argmin", "E_used")
    elif mode == "scale":
        keep = ("rows", "monotone_error", "monotone_bound")
    elif mode == "classify-quantum":
        keep = ("label", "horizons", "mu", "tau", "trailing_increment")
    elif mode == "ehrenfest":
        out = {k: result[k] for k in ("identity_max", "gap_initial", "gap_max")}
        for k in ("times", "identity", "gap"):
            out[k] = result[k][::EHRENFEST_STRIDE]
        return out
    elif mode == "classify-classical":
        keep = ("label", "horizon", "diagnostics")
    else:
        keep = ("norm", "trace", "aOmega_sq_measured", "aOmega_bound")
    return {k: result[k] for k in keep}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(got, ref, path="result") -> list:
    """Mismatches between got and ref as human-readable strings."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in ref for m in compare(got[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        if ref and all(_is_number(v) for v in ref + got):
            scale = max(max(abs(v) for v in ref), SCALAR_FLOOR)
            worst = max(abs(a - b) for a, b in zip(got, ref))
            if not worst <= REFERENCE_TOL * scale:
                return [f"{path}: max deviation {worst:.3g} at scale {scale:.3g}"]
            return []
        return [m for i, (a, b) in enumerate(zip(got, ref))
                for m in compare(a, b, f"{path}[{i}]")]
    if _is_number(ref) and _is_number(got):
        if not abs(got - ref) <= REFERENCE_TOL * max(abs(ref), SCALAR_FLOOR):
            return [f"{path}: {got!r} != {ref!r}"]
        return []
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_reduce(config: dict, r: dict) -> list:
    problems = []
    n = len(r["times"])
    for key in REDUCE_CURVES:
        if len(r[key]) != n or not _finite(r[key]):
            problems.append(f"{key}: missing, short or not finite")
    if problems:
        return problems
    if r["verdict"] not in VERDICTS:
        return [f"verdict {r['verdict']!r} is not a verdict label"]
    eps = float(config["problem"]["epsilon"])
    violated = max(r["error_max"]) >= eps
    if violated != (r["verdict"] == "not-reduced"):
        problems.append("verdict disagrees with the error against epsilon")
    if r["verdict"] == "reduced" and not r["hypotheses_hold"]:
        problems.append("reduced without the hypotheses holding")
    if any(b < a for a, b in zip(r["delta1_duhamel"], r["delta1_duhamel"][1:])):
        problems.append("Duhamel curve decreases")
    if r["hypotheses_hold"]:
        gap = max(e - min(g, s) for e, g, s in zip(
            r["error_max"], r["bound_general"], r["bound_specialized"]))
        if gap > DOMINATION_SLACK:
            problems.append("bound fails to dominate the measured error")
    return problems


def _check_squeeze(config: dict, r: dict) -> list:
    dilations = [float(d) for d in config["problem"]["dilations"]]
    if [row["d"] for row in r["rows"]] != dilations:
        return ["rows do not match the dilations"]
    E = r["E_used"]
    # s = 1 in every config, so the specialized prefactor is 1.
    for row in r["rows"]:
        total = (E + 3.0) * row["duhamel_term"] + 2.0 * (E + 1.0) * row["comparator_term"]
        if abs(total - row["total_bound"]) > REFERENCE_TOL * total:
            return [f"total bound at d={row['d']} is not the sum of its terms"]
    if r["argmin"] != min(r["rows"], key=lambda row: row["total_bound"])["d"]:
        return ["argmin is not the smallest total bound"]
    return []


def _check_scale(config: dict, r: dict) -> list:
    lams = [float(x) for x in config["problem"]["lambdas"]]
    if [row["lam"] for row in r["rows"]] != lams:
        return ["rows do not match the lambdas"]
    if any(row["failed"] is not None for row in r["rows"]):
        return ["a scale row failed"]
    if not _finite([row[k] for row in r["rows"] for k in ("error", "bound")]):
        return ["scale rows not finite"]
    return []


def _check_classify_quantum(config: dict, r: dict) -> list:
    if r["label"] not in ("ac-like", "pp-like", "exceptional-candidate"):
        return [f"label {r['label']!r} is not a quantum label"]
    H = float(config["problem"]["horizons"])
    if any(abs(a - b) > 1e-12 * H for a, b in zip(r["horizons"], [H / 4, H / 2, H])):
        return ["horizon ladder is not [T/4, T/2, T]"]
    return [] if _finite(r["mu"] + r["tau"]) else ["mu or tau not finite"]


def _check_ehrenfest(config: dict, r: dict) -> list:
    if not len(r["times"]) == len(r["identity"]) == len(r["gap"]) > 0:
        return ["Ehrenfest curves differ in length"]
    return [] if _finite(r["identity"] + r["gap"]) else ["curves not finite"]


def _check_classify_classical(config: dict, r: dict) -> list:
    ok = r["label"] in ("bound", "scattering", "undecided")
    return [] if ok else [f"label {r['label']!r} is not a classical label"]


def _check_audit(config: dict, r: dict) -> list:
    return [] if abs(r["trace"] - 1.0) < 1e-12 else ["comparator trace is not 1"]


INVARIANTS = {
    "reduce": _check_reduce, "squeeze": _check_squeeze, "scale": _check_scale,
    "classify-quantum": _check_classify_quantum, "ehrenfest": _check_ehrenfest,
    "classify-classical": _check_classify_classical,
    "comparator-audit": _check_audit,
}


def check_unit(config: dict, result: dict, reference=None) -> list:
    """All problems found in one unit's result; empty when it is correct."""
    problems = INVARIANTS[config["mode"]](config, result)
    if reference is not None:
        problems += compare(checked_fields(config["mode"], result), reference)
    return problems
