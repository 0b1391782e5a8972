"""A seeded random family of prolongable morphic specs, for decision
coverage: how many inputs each stage decides.

Each draw works like this:

* r is uniform in 2..4, over the letters a, b, c, d; with ``r`` given, r is
  that number, over the letters l0, l1, ..., and is not drawn;
* the first letter maps to itself followed by 1-3 uniform letters, every
  other letter to 1-4 uniform letters, so no draw is erasing and the first
  letter is a prolongable seed;
* with probability 1/2 the draw carries a surjective coding onto t in
  1..min(4, r) tokens: the table is 0..t-1 plus r - t random entries,
  shuffled.

Every draw runs through ``analyze`` at depth 2000.  ``tests/family_counts.json``
pins the (kind, provenance) counts over seeds 1 and 7, 1500 draws each.  A
change that moves coverage re-pins it on purpose; print the counts with

    PYTHONPATH=src python tests/family.py
"""

from __future__ import annotations

import json
import random
from collections import Counter

from morphauto import AnalyzeOptions, analyze, parse_morphism

SEEDS = (1, 7)
DRAWS = 1500
DEPTH = 2000


def family(seed: int, count: int = DRAWS, r: int | None = None) -> list[str]:
    """``count`` draws as ``.morph`` text, the same for the same seed and r."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        if r is None:
            letters = list("abcd"[: rng.randint(2, 4)])
        else:
            letters = [f"l{i}" for i in range(r)]
        first = letters[0]
        rules = {first: [first] + [rng.choice(letters) for _ in range(rng.randint(1, 3))]}
        for c in letters[1:]:
            rules[c] = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
        lines = [f"letters: {' '.join(letters)}"]
        lines += [f"{c} -> {' '.join(img)}" for c, img in rules.items()]
        lines.append(f"seed: {first}")
        if rng.random() < 0.5:
            t = rng.randint(1, min(4, len(letters)))
            table = list(range(t)) + [rng.randrange(t) for _ in range(len(letters) - t)]
            rng.shuffle(table)
            lines.append("coding: " + ", ".join(f"{c}->{v}" for c, v in zip(letters, table)))
        texts.append("\n".join(lines) + "\n")
    return texts


def coverage(seeds=SEEDS, count: int = DRAWS) -> dict[str, int]:
    """Draws per ``kind/provenance`` of their verdict, keys sorted."""
    options = AnalyzeOptions(depth=DEPTH)
    counts = Counter()
    for seed in seeds:
        for text in family(seed, count):
            verdict = analyze(parse_morphism(text), options).verdict
            counts[f"{verdict.kind}/{verdict.provenance}"] += 1
    return dict(sorted(counts.items()))


if __name__ == "__main__":
    print(json.dumps(coverage(), indent=1))
