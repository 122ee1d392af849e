"""Seeded inputs for the three benchmark workloads.

Everything here is plain data built from the seed with ``random.Random``:
CLI argument lists for the job workloads and a query stream for the
invariants workload.  Nothing here imports braidalg; the program only ever
receives the generated words, series files and argv.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables", "associator", "invariants")

# The degree-7 semi-associator that extend-associator produces from "1";
# check-associator --axioms P builds chord(4) to degree 4 on it.
PHI7_FIXTURE = "fixtures/phi7.txt"

# (n, cap) of the two warm bases the invariants workload loads at set-up;
# queries alternate between them.
INVARIANT_BASES = ((3, 5), (4, 4))
WORD_LENGTHS = (6, 14)
# A splitting item is two cheap queries and a distinguish item one dear one;
# four distinguish items per splitting item put the median query inside the
# distinguish latencies rather than on the gap between the two groups.
ITEM_KINDS = ("related", "unrelated", "splitting", "related", "unrelated")


def table_jobs(fixture: str) -> list:
    """Cold quotient builds, the same for every seed.

    Each job is short (0.05-0.25 s on the machine the benchmark was first
    measured on), so that a pass is about 2 s and a run repeats every job
    often enough for its least time to be steady.  The first two jobs each
    get their own empty cache dir, so they also write the disk cache.
    """
    return [
        _job("dim-oriented4", ["dim", "--preset", "oriented_artin", "--n", "4", "--cap", "3",
                               "--cache-dir", "cache-oriented4"],
             check=("dim", "oriented_artin", 4, 3), cache_dir="cache-oriented4"),
        _job("dim-oriented3", ["dim", "--preset", "oriented_artin", "--n", "3", "--cap", "4",
                               "--cache-dir", "cache-oriented3"],
             check=("dim", "oriented_artin", 3, 4), cache_dir="cache-oriented3"),
        _job("dim-upper4", ["dim", "--preset", "oriented_upper_triangular", "--n", "4", "--cap", "4"],
             check=("dim", "oriented_upper_triangular", 4, 4)),
        _job("dim-chord4", ["dim", "--preset", "infinitesimal_artin", "--n", "4", "--cap", "4"],
             check=("dim", "infinitesimal_artin", 4, 4)),
        _job("dim-chord3", ["dim", "--preset", "infinitesimal_artin", "--n", "3", "--cap", "6"],
             check=("dim", "infinitesimal_artin", 3, 6)),
        _job("delta-kernel4", ["delta-kernel", "--n", "4", "--cap", "3"],
             check=("delta_kernel", 4, 3)),
        _job("pentagon4", ["check-associator", "--axioms", "P", "--cap", "4", "--in", fixture],
             check=("axioms", ("P",))),
    ]


def associator_jobs(seed: int) -> list:
    """Series and solver work: extend "1" to degree 6, check it, evaluate words on it.

    The five jobs on the extended associator do not depend on the seed and
    are each dearer than any of the four seeded evals, so the median job of
    the nine is always one of them and the evals' word-to-word cost does not
    move the median.
    """
    rng = random.Random(f"associator:{seed}")
    w3 = braid_word(rng, 3, 10)
    w4 = braid_word(rng, 4, 8)
    w4_rel = insert_relator(rng, w4, rng.choice(braid_relators(4)))
    return [
        _job("extend6", ["extend-associator", "--from", "one.txt", "--to-degree", "6", "--out", "phi.txt"],
             check=("extend", 6)),
        _job("axioms6", ["check-associator", "--axioms", "AE,AS,H1,H3", "--cap", "6", "--in", "phi.txt"],
             check=("axioms", ("AE", "AS", "H1", "H3"))),
        _job("pentagon4", ["check-associator", "--axioms", "P", "--cap", "4", "--in", "phi.txt"],
             check=("axioms", ("P",))),
        _job("yang-baxter6", ["check-yb", "--cap", "6", "--in", "phi.txt"], check=("yang_baxter",)),
        _job("yang-baxter5", ["check-yb", "--cap", "5", "--in", "phi.txt"], check=("yang_baxter",)),
        _job("rho3", _eval_argv("rho3", 3, 4, w3), check=("eval",)),
        _job("drinfeld3", _eval_argv("drinfeld", 3, 4, w3), check=("same_image", "rho3")),
        _job("drinfeld4", _eval_argv("drinfeld", 4, 3, w4), check=("eval",)),
        _job("drinfeld4-relator", _eval_argv("drinfeld", 4, 3, w4_rel), check=("same_image", "drinfeld4")),
    ]


def _eval_argv(family, n, cap, word):
    return ["eval", "--family", family, "--n", str(n), "--cap", str(cap), "--assoc", "phi.txt",
            "--word", word]


def _job(name, argv, check, cache_dir=None) -> dict:
    argv = argv + ["--format", "structured"]
    return {"name": name, "argv": argv, "check": list(check), "cache_dir": cache_dir}


# -- words in the CLI token grammar ---------------------------------------------


def braid_word(rng: random.Random, n: int, length: int) -> str:
    return " ".join(f"sig{rng.randint(1, n - 1)}{rng.choice(('', '^-1'))}" for _ in range(length))


def welded_word(rng: random.Random, n: int, length: int) -> str:
    """A word whose letters cycle through the kinds a, s, sig, in a seeded order."""
    kinds = [("a", "s", "sig")[i % 3] for i in range(length)]
    rng.shuffle(kinds)
    letters = []
    for kind in kinds:
        if kind == "a":
            i, j = rng.sample(range(1, n + 1), 2)
            letters.append(f"a{i}{j}{rng.choice(('', '^-1'))}")
        elif kind == "s":
            letters.append(f"s{rng.randint(1, n - 1)}")
        else:
            letters.append(f"sig{rng.randint(1, n - 1)}{rng.choice(('', '^-1'))}")
    return " ".join(letters)


def _inv(token: str) -> str:
    return token[:-3] if token.endswith("^-1") else token + "^-1"


def _commutator(u: list, v: list) -> str:
    """u v u^-1 v^-1 for token lists u, v."""
    return " ".join(u + v + [_inv(t) for t in reversed(u)] + [_inv(t) for t in reversed(v)])


def mccool_relators(n: int) -> list:
    """The McCool relators (I), (II), (III) of the welded braid group."""
    rels = []
    strands = range(1, n + 1)
    for i in strands:
        for j in strands:
            for k in strands:
                if len({i, j, k}) == 3:
                    rels.append(_commutator([f"a{i}{k}"], [f"a{j}{k}"]))
                    rels.append(_commutator([f"a{i}{j}"], [f"a{i}{k}", f"a{j}{k}"]))
    for i in strands:
        for j in strands:
            for k in strands:
                for l in strands:
                    if len({i, j, k, l}) == 4:
                        rels.append(_commutator([f"a{i}{j}"], [f"a{k}{l}"]))
    return rels


def braid_relators(n: int) -> list:
    """Far commutation and the braid relation, in sig tokens."""
    rels = []
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(_commutator([f"sig{i}"], [f"sig{j}"]))
    for i in range(1, n - 1):
        rels.append(f"sig{i + 1} sig{i} sig{i + 1} sig{i}^-1 sig{i + 1}^-1 sig{i}^-1")
    return rels


def insert_relator(rng: random.Random, word: str, relator: str) -> str:
    tokens = word.split()
    pos = rng.randint(0, len(tokens))
    return " ".join(tokens[:pos] + relator.split() + tokens[pos:])


# -- the invariants query stream ------------------------------------------------


def invariant_items(seed: int, count: int) -> list:
    """The first ``count`` items of a seed's closed-loop query stream.

    Kinds: ``related`` (distinguish w1 from w1 with a relator inserted),
    ``unrelated`` (distinguish two independent words) and ``splitting``
    (vassiliev_degree of (c-1)^k and of (c-1)^k [s], two queries).  The mix
    and the sizes are fixed, so that seeds differ only in the letters and
    positions: items alternate (n, cap) between the warm bases and cycle
    through the kinds; word lengths cycle through 6..14, inserted relators
    through the relator list, and the conjugating word's length and k through
    1..3 (k capped by the cap).
    """
    rng = random.Random(f"invariants:{seed}")
    relators = {n: mccool_relators(n) + braid_relators(n) for n, _ in INVARIANT_BASES}
    items = []
    for index in range(count):
        n, cap = INVARIANT_BASES[index % len(INVARIANT_BASES)]
        kind = ITEM_KINDS[index // len(INVARIANT_BASES) % len(ITEM_KINDS)]
        cycle = index // (len(INVARIANT_BASES) * len(ITEM_KINDS))
        low, high = WORD_LENGTHS
        length = low + cycle % (high - low + 1)
        item = {"kind": kind, "n": n, "cap": cap}
        if kind == "related":
            w1 = welded_word(rng, n, length)
            relator = relators[n][cycle % len(relators[n])]
            item.update(w1=w1, w2=insert_relator(rng, w1, relator))
        elif kind == "unrelated":
            item.update(w1=welded_word(rng, n, length),
                        w2=welded_word(rng, n, high + low - length))
        else:
            conj = []
            for _ in range(1 + cycle % 3):
                i, j = rng.sample(range(1, n + 1), 2)
                conj.append(f"a{i}{j}{rng.choice(('', '^-1'))}")
            perm = [f"s{rng.randint(1, n - 1)}" for _ in range(rng.randint(0, 3))]
            item.update(c=" ".join(conj), k=min(1 + cycle // 3 % 3, cap), s=" ".join(perm))
        items.append(item)
    return items
