"""Seeded inputs for the three benchmark workloads.

A job is one analysis: rule text, the prefixes and relations to run, and the
budgets, all expressible as `balpair verdict` flags so that any job can be
replayed from the command line. Random substitutions are filtered only on
cheap properties no optimisation of the program alters (primitivity and an
admissible prefix at the job's own `--prefix-auto`), never on closure or
factoring results.

The cost of one analysis varies fifty-fold between random inputs, so a
workload drawn wholly from the run's seed would differ more from seed to
seed than the bounds allow. Each workload therefore holds a fixed core
(drawn once from a constant stream) and lets the seed vary a part whose cost
stays steady: four fresh draws in `batch`, a relabelling of the letters of
each wide draw in `spectral` (the characteristic polynomial, and so the
factoring work, does not change; the fixed word and prefixes do), and the
order of their jobs. `closure` is the same for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from balpair import (AnalysisConfig, BalpairError, Budgets, LengthSpec,
                     RelationSpec, admissible_prefixes, fixed_point_stream,
                     parse_substitution)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "src" / "balpair" / "fixtures"
FIXTURE_NAMES = ("ex1", "const-len", "exnoncon", "reducible3", "mt-rewrite",
                 "pisot-rewrite")

# acceptance criterion 11's closure budgets, as the CLI can express them
TIGHT = {"max_iterations": 8, "max_pairs": 250, "max_word_length": 400}
BATCH_CORE_DRAWS = 96
BATCH_SEEDED_DRAWS = 4
SPECTRAL_DRAWS = 8
WORKLOADS = ("batch", "closure", "spectral")


@dataclass(frozen=True)
class Job:
    """One analysis: `balpair verdict <name>.sub` with the flags below."""

    name: str
    text: str
    lengths: tuple = ("lambda", "ones")  # general mode over these specs
    mode: str | None = None  # plain | letters; overrides lengths
    prefix: str | None = None  # explicit prefix, else auto
    auto_max_len: int = 8
    budgets: dict = field(default_factory=dict)
    expect_pairs: int | None = None  # closure size every cell must reach
    sidecar: dict | None = None  # a fixture's *.expect.json

    def config(self, subst):
        """The AnalysisConfig `balpair verdict` builds from these flags."""
        if self.mode == "plain":
            relations = [RelationSpec.plain()]
        elif self.mode == "letters":
            relations = [RelationSpec.letters()]
        else:
            relations = [RelationSpec.general(LengthSpec.parse(text))
                         for text in self.lengths]
        prefixes = ([subst.alphabet.word_from_text(self.prefix)]
                    if self.prefix is not None else [])
        return AnalysisConfig(prefixes=prefixes,
                              auto_max_len=self.auto_max_len,
                              relations=relations,
                              budgets=Budgets(**self.budgets))

    def cli_flags(self):
        flags = []
        if self.prefix is not None:
            flags += ["--prefix", self.prefix]
        else:
            flags += ["--prefix-auto", str(self.auto_max_len)]
        if self.mode is not None:
            flags += ["--mode", self.mode]
        else:
            for text in self.lengths:
                flags += ["--length", text]
        cli_names = {"max_iterations": "--max-iter",
                     "max_pairs": "--max-pairs",
                     "max_word_length": "--max-word-len"}
        for key, value in self.budgets.items():
            flags += [cli_names[key], str(value)]
        return flags


def _render(rules):
    return "".join(f"{i + 1} -> {''.join(str(x + 1) for x in img)}\n"
                   for i, img in enumerate(rules))


def _random_rules(rng, sizes, image_lengths):
    n = rng.randint(*sizes)
    return _render([[rng.randrange(n)
                     for _ in range(rng.randint(*image_lengths))]
                    for _ in range(n)])


def _admissible(text, auto_max_len):
    """Primitive, with an admissible prefix at the job's own auto length."""
    subst = parse_substitution(text)
    if not subst.is_primitive():
        return False
    try:
        stream = fixed_point_stream(subst)
    except BalpairError:
        return False
    return bool(admissible_prefixes(stream, auto_max_len))


def _draw(rng, count, sizes, image_lengths, auto_max_len, exclude=()):
    """`count` distinct admissible rule texts, in draw order."""
    texts = []
    while len(texts) < count:
        text = _random_rules(rng, sizes, image_lengths)
        if (text not in texts and text not in exclude
                and _admissible(text, auto_max_len)):
            texts.append(text)
    return texts


def _relabel(text, rng, auto_max_len, tries=20):
    """The same substitution under a random renaming of its letters.

    Falls back to the original names when no tried renaming is admissible.
    """
    rules = parse_substitution(text).rules
    for _ in range(tries):
        perm = list(range(len(rules)))
        rng.shuffle(perm)
        renamed = [None] * len(rules)
        for letter, image in enumerate(rules):
            renamed[perm[letter]] = [perm[x] for x in image]
        candidate = _render(renamed)
        if _admissible(candidate, auto_max_len):
            return candidate
    return text


def _fixture(name):
    return (FIXTURES / f"{name}.sub").read_text(encoding="utf-8")


def multinacci(k):
    """1->12, 2->13, ..., (k-1)->1k, k->1 on the letters 1..k (k <= 9)."""
    lines = [f"{i} -> 1{i + 1}" for i in range(1, k)] + [f"{k} -> 1"]
    return "\n".join(lines) + "\n"


def batch_jobs(seed):
    jobs = [Job(f"fixture-{name}", _fixture(name), budgets=TIGHT,
                sidecar=json.loads((FIXTURES / f"{name}.expect.json")
                                   .read_text(encoding="utf-8")))
            for name in FIXTURE_NAMES]
    core = _draw(random.Random("batch-core"), BATCH_CORE_DRAWS, (2, 4),
                 (1, 4), 8)
    seeded = _draw(random.Random(f"batch-{seed}"), BATCH_SEEDED_DRAWS,
                   (2, 4), (1, 4), 8, exclude=core)
    jobs += [Job(f"core-{i:03d}", text, budgets=TIGHT)
             for i, text in enumerate(core)]
    jobs += [Job(f"seeded-{i:03d}", text, budgets=TIGHT)
             for i, text in enumerate(seeded)]
    random.Random(f"batch-order-{seed}").shuffle(jobs)
    return jobs


def closure_jobs(_seed):
    criterion2 = {"max_iterations": 14, "max_word_length": 200_000}
    criterion5 = {"max_iterations": 60, "max_pairs": 20_000,
                  "max_word_length": 200_000}
    jobs = [
        Job("const-len-plain", _fixture("const-len"), mode="plain",
            prefix="1", budgets=criterion2),
        Job("mt-rewrite-lambda", _fixture("mt-rewrite"), lengths=("lambda",),
            prefix="1", budgets=criterion5),
        Job("mt-rewrite-letters", _fixture("mt-rewrite"), mode="letters",
            prefix="1", budgets=criterion5),
    ]
    manifest = json.loads((HERE / "inputs" / "closures.json").read_text())
    for entry in manifest:
        text = (HERE / "inputs" / entry["file"]).read_text(encoding="utf-8")
        jobs.append(Job(entry["file"][:-len(".sub")], text,
                        lengths=("lambda",), prefix=entry["prefix"],
                        expect_pairs=entry["pairs"]))
    return jobs  # the same for every seed


def spectral_jobs(seed):
    jobs = [Job(f"multinacci-{k}", multinacci(k), auto_max_len=4,
                budgets=TIGHT) for k in (6, 7, 8)]
    # images of 1-3 letters put 7 of 100 draws over 20 s per factor_poly
    # call, past the run time limit; 1-2 letters keep every call under 6 s
    core = _draw(random.Random("spectral-core"), SPECTRAL_DRAWS, (6, 8),
                 (1, 2), 4)
    rng = random.Random(f"spectral-{seed}")
    jobs += [Job(f"wide-{i:03d}", _relabel(text, rng, 4), auto_max_len=4,
                 budgets=TIGHT) for i, text in enumerate(core)]
    random.Random(f"spectral-order-{seed}").shuffle(jobs)
    return jobs


def jobs_for(workload, seed):
    return {"batch": batch_jobs, "closure": closure_jobs,
            "spectral": spectral_jobs}[workload](seed)
