"""Output checks: every job and query result is compared with an independent expectation.

Dimension rows are checked against closed forms, verdicts against the
relations they must respect.  A checker returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

from math import comb

# oriented_upper_triangular has no closed form here; this row is the one
# measured for n = 4 and recorded in ROADMAP.md.
UPPER_TRIANGULAR_ROWS = {4: [1, 12, 133, 1470, 16249]}


def chord_dims(n: int, cap: int) -> list:
    """Kohno's product formula: prod_{j=1}^{n-1} 1/(1 - j t), degrees 0..cap."""
    row = [1] + [0] * cap
    for j in range(1, n):
        # multiply by 1/(1 - j t): row[k] += j * row[k-1], ascending k
        for k in range(1, cap + 1):
            row[k] += j * row[k - 1]
    return row


def oriented_dims(n: int, cap: int) -> list:
    """(1 - n t)^-(n-1), degrees 0..cap."""
    return [comb(k + n - 2, n - 2) * n**k for k in range(cap + 1)]


def expected_dims(preset: str, n: int, cap: int) -> list:
    if preset == "infinitesimal_artin":
        return chord_dims(n, cap)
    if preset == "oriented_artin":
        return oriented_dims(n, cap)
    if preset == "oriented_upper_triangular":
        return UPPER_TRIANGULAR_ROWS[n][: cap + 1]
    raise ValueError(f"no expected dimensions for {preset}")


def check_job(check: list, out: dict, earlier: dict):
    """Check one CLI job's structured output; ``earlier`` maps job names to their outputs."""
    kind, *params = check
    values = out.get("values")
    if kind == "dim":
        preset, n, cap = params
        want = [str(d) for d in expected_dims(preset, n, cap)]
        if values != want:
            return f"dim {preset}({n}) = {values}, expected {want}"
    elif kind == "delta_kernel":
        n, cap = params
        domain = chord_dims(n, cap)
        for k in range(1, cap + 1):
            got = values.get(str(k)) if isinstance(values, dict) else None
            want = {"kernel_dimension": 0, "domain_dimension": domain[k]}
            if got != want:
                return f"delta-kernel degree {k}: {got}, expected {want}"
    elif kind == "axioms":
        (axioms,) = params
        if not isinstance(values, dict) or sorted(values) != sorted(axioms):
            return f"axioms reported {values!r}, expected {list(axioms)}"
        failed = [ax for ax in axioms if values[ax].get("passed") is not True]
        if failed:
            return f"axioms failed: {failed}"
    elif kind == "extend":
        (degree,) = params
        if out.get("degrees") != list(range(2, degree + 1)):
            return f"extend-associator reached degrees {out.get('degrees')}, expected 2..{degree}"
    elif kind == "yang_baxter":
        if not isinstance(values, dict) or values.get("passed") is not True:
            return f"Yang-Baxter check failed: {values!r}"
    elif kind == "eval":
        if not isinstance(values, list) or len(values) != 1 or values[0]["terms"].get("1") != "1":
            return "braid image is not a single term with constant term 1"
    elif kind == "same_image":
        (other,) = params
        if other not in earlier:
            return f"no output from {other} to compare with"
        if values != earlier[other].get("values"):
            return f"image differs from {other}"
    else:
        raise ValueError(f"unknown check {kind!r}")
    return None


def check_item(item: dict, results: list):
    """Check one invariants query item against its verdicts.

    ``results`` holds [first_difference_degree, oracle_equal] for each
    distinguish call and the order for each vassiliev_degree call.
    """
    kind = item["kind"]
    if kind == "related":
        ((degree, oracle_equal),) = results
        if not oracle_equal:
            return "oracle says a word with an inserted relator is distinct"
        if degree is not None:
            return f"images differ at degree {degree} for words equal in the group"
    elif kind == "unrelated":
        ((degree, oracle_equal),) = results
        if degree is not None and oracle_equal:
            return f"images differ at degree {degree} but the oracle says the words are equal"
    elif kind == "splitting":
        plain, twisted = results
        if plain != twisted:
            return f"order {plain} of (c-1)^k differs from order {twisted} with the permutation factor"
        if plain is not None and plain < item["k"]:
            return f"order {plain} below k = {item['k']}"
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return None
