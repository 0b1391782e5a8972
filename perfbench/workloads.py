"""Seeded inputs for the benchmark's workloads, stdlib only.

Every generator takes the seed as an argument and returns ``Item``s: the
``.morph`` text the program receives and the verdict the gate expects.
Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# The corpus pairs bundled at the commit that introduced this benchmark.
# Pairs added later are left out, so the workload stays the same across
# commits.
CORPUS_NAMES = (
    "a284775", "a284878", "a284905", "a284912", "a284935", "a285159", "a285162",
    "a285249", "a285252", "a285255", "a285258", "a285305", "a285345",
    "abc_cycle_cube", "acaba", "anagram7", "bartholdi", "benli", "berstel",
    "fib_bc", "fib_cd", "fibonacci", "grig_aba", "grig_aca_aba", "istrail",
    "lysenok", "lysenok_psi", "muntyan_cube", "muntyan_pd", "nekra_blocks",
    "nekrashevych_cube", "period_doubling", "thue_morse", "tm_cube", "xzy",
)

# Alphabet sizes of the spectral family, cycled through in this order so
# that every run, whatever its length, sees the sizes in equal shares.  The
# benchmark reports each input's best time over several runs; at r = 40 and
# 48 one `analyze` takes 1 to 3 s, too long to run each input several times
# in one run.
SPECTRAL_SIZES = (16, 20, 24, 28, 32)
SPECTRAL_COUNT = 20
# Inputs whose float Perron estimate lies this close to an integer are
# dropped: the gate expects `not_automatic`, which needs an irrational root.
PERRON_MARGIN = 1e-3


@dataclass(frozen=True)
class Item:
    name: str
    text: str
    expected: dict  # "verdict", and optionally "q" and "stage"


def _morph_text(letters, images, seed) -> str:
    lines = ["letters: " + " ".join(letters)]
    lines += [f"{tok} -> {' '.join(img)}" for tok, img in zip(letters, images)]
    lines.append(f"seed: {seed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# corpus: the bundled regression pairs

def corpus_items(corpus_dir: Path, names=CORPUS_NAMES) -> list[Item]:
    items = []
    for name in names:
        expected = json.loads((corpus_dir / f"{name}.expected.json").read_text(encoding="utf-8"))
        keep = {key: expected[key] for key in ("verdict", "q", "stage") if key in expected}
        items.append(Item(name, (corpus_dir / f"{name}.morph").read_text(encoding="utf-8"), keep))
    return items


def corpus_workload(seed: int, corpus_dir: Path) -> list[Item]:
    """The corpus pairs, in an order drawn from the seed."""
    items = corpus_items(corpus_dir)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# spectral: large primitive non-uniform morphisms with irrational Perron root

def perron_estimate(images: list[list[int]], iterations: int = 200) -> float:
    """Float power iteration on the incidence matrix.  Used only to choose
    inputs, never to judge a verdict."""
    r = len(images)
    v = [1.0] * r
    lam = 0.0
    for _ in range(iterations):
        w = [0.0] * r
        for j, img in enumerate(images):
            for c in img:
                w[c] += v[j]
        total = sum(w)
        lam = total / sum(v)
        v = [x / total for x in w]
    return lam


def _spectral_images(rng: random.Random, r: int, anagram_pair: bool) -> list[list[int]]:
    # Letter i -> i+1 (mod r) closes a cycle through every letter, and the
    # seed's self-loop 0 -> 0 1 makes the matrix aperiodic: primitive.
    # With ``anagram_pair``, two letters j < k get anagram images, so two
    # columns of the matrix agree and 0 is an eigenvalue: the characteristic
    # polynomial has an integer root, and `spectral_report` takes its
    # square-free part and Sturm count.  Without it, most inputs have no
    # integer root and `spectral_report` stops there.
    while True:
        images = []
        for i in range(r):
            img = [0, 1] if i == 0 else [(i + 1) % r]
            for _ in range(rng.randint(0, 2)):
                img.insert(rng.randint(1, len(img)), rng.randrange(r))
            images.append(img)
        if anagram_pair:
            j, k = sorted(rng.sample(range(1, r), 2))
            images[j] = [j + 1, (k + 1) % r] + images[j][1:]
            images[k] = [(k + 1) % r, j + 1] + images[j][2:]
        if len({len(img) for img in images}) == 1:
            continue
        lam = perron_estimate(images)
        if abs(lam - round(lam)) < PERRON_MARGIN:
            continue
        return images


def spectral_workload(seed: int, count: int = SPECTRAL_COUNT) -> list[Item]:
    """Even-numbered inputs have a forced anagram pair, odd ones do not; the
    sizes cycle through SPECTRAL_SIZES, so the first 2 * len(SPECTRAL_SIZES)
    inputs hold every size with and without the pair."""
    rng = random.Random(seed)
    items = []
    for n in range(count):
        r = SPECTRAL_SIZES[n % len(SPECTRAL_SIZES)]
        letters = [f"a{i}" for i in range(r)]
        images = _spectral_images(rng, r, anagram_pair=n % 2 == 0)
        text = _morph_text(letters, [[letters[c] for c in img] for img in images], letters[0])
        items.append(
            Item(f"spectral-r{r}-{n}", text, {"verdict": "not_automatic", "stage": "irrationality"})
        )
    return items
