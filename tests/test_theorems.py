"""Verdicts checked against theorems from outside the program.

Dekking (1978): a primitive substitution of constant length q and height 1
has pure discrete spectrum exactly when it has a coincidence, that is,
when some column of some sigma^n is a single letter. For constant length
the Perron length vector is constant, so the tiling flow the verdict
speaks of is the suspension of the substitution's Z-action under a
constant roof, and the two have pure discrete spectrum together.

Both sides are computed here without the engine. The coincidence is a
search over sets of letters: column j maps a set S to the letters at place
j of the images of S's letters, and some sigma^n has a one-letter column
exactly when a single letter is reachable from the whole alphabet. The
height is the largest divisor of g = gcd{k >= 1 : u_k = u_0} that is prime
to q; g is read from a prefix of the fixed word u, whose gcd is a multiple
of the true one, so a height of 1 read there is exact.

Barge and Diamond (2002) with Hollander and Solomyak (2003): every
primitive two-letter substitution whose characteristic polynomial is an
irreducible Pisot quadratic has pure discrete spectrum. The polynomial of
the 2x2 substitution matrix is x^2 - t x + d, t its trace and d its
determinant; it is irreducible exactly when t^2 - 4d is not a square, and
its other root lies strictly inside (-1, 1), with the Perron root above 1,
exactly when p(1) < 0 < p(-1).

A verdict other than `pure_discrete` needs the prefix to return and a
terminated closure, so only decided cells are compared.
"""

import importlib
import random
from contextlib import contextmanager
from math import gcd, isqrt

import pytest

from balpair.substitution import parse_substitution
from balpair.verdict import (NOT_PURE_DISCRETE, PURE_DISCRETE, AnalysisConfig,
                             analyze)

from test_split import BATCH_BUDGETS, _mutant

# the package re-exports verdict(), which hides the module attribute
verdict_module = importlib.import_module("balpair.verdict")
engine_module = importlib.import_module("balpair.engine")


def has_coincidence(subst):
    """Some column of some power of the constant-length subst is one
    letter."""
    rules = subst.rules
    start = frozenset(range(subst.size))
    seen, stack = {start}, [start]
    while stack:
        letters = stack.pop()
        if len(letters) == 1:
            return True
        for j in range(len(rules[0])):
            column = frozenset(rules[a][j] for a in letters)
            if column not in seen:
                seen.add(column)
                stack.append(column)
    return False


def height(subst, letters=2000):
    """The largest divisor of the return-time gcd of u's first letter that
    is prime to the length, read from u's first `letters` letters."""
    u = subst.fixed_point().prefix(letters)
    g = 0
    for k in range(1, letters):
        if u[k] == u[0]:
            g = gcd(g, k)
    q = len(subst.rules[0])
    while (common := gcd(g, q)) > 1:
        g //= common
    return g


def constant_length_cases(count=200):
    """Derandomized primitive constant-length substitutions of height 1 on
    2-4 letters, with images of 2-4 letters."""
    rng = random.Random(1978)
    cases = []
    while len(cases) < count:
        size, q = rng.randint(2, 4), rng.randint(2, 4)
        images = ("".join(str(rng.randrange(size) + 1) for _ in range(q))
                  for _ in range(size))
        text = "".join(f"{a + 1} -> {image}\n"
                       for a, image in enumerate(images))
        subst = parse_substitution(text)
        if subst.is_primitive() and height(subst) == 1:
            cases.append(subst)
    return cases


def _dekking_check(cases):
    """Every decided cell agrees with Dekking's theorem; returns the
    verdict kinds seen."""
    kinds = set()
    for subst in cases:
        expected = (PURE_DISCRETE if has_coincidence(subst)
                    else NOT_PURE_DISCRETE)
        report = analyze(subst, AnalysisConfig(budgets=BATCH_BUDGETS))
        for cell in report.cells:
            kind = cell.verdict.kind if cell.verdict else None
            if kind in (PURE_DISCRETE, NOT_PURE_DISCRETE):
                assert kind == expected, (subst, cell.prefix, cell.spec)
                kinds.add(kind)
    return kinds


def pisot_quadratic(subst):
    """The two-letter subst's characteristic polynomial is an irreducible
    Pisot quadratic."""
    (a, b), (c, d) = subst.transition_matrix()
    trace, det = a + d, a * d - b * c
    disc = trace * trace - 4 * det
    return (1 - trace + det < 0 < 1 + trace + det
            and isqrt(disc) ** 2 != disc)


def two_letter_pisot_cases(count=150):
    """Derandomized distinct primitive two-letter substitutions with
    images of 1-6 letters whose characteristic polynomial is an
    irreducible Pisot quadratic."""
    rng = random.Random(2002)
    cases = {}
    while len(cases) < count:
        images = ("".join(rng.choice("12") for _ in range(rng.randint(1, 6)))
                  for _ in range(2))
        text = "".join(f"{a + 1} -> {image}\n"
                       for a, image in enumerate(images))
        subst = parse_substitution(text)
        if subst.is_primitive() and pisot_quadratic(subst):
            cases.setdefault(subst.rules, subst)
    return list(cases.values())


def _pisot_check(cases):
    """No decided cell says not_pure_discrete; returns the verdict kinds
    seen."""
    kinds = set()
    for subst in cases:
        report = analyze(subst, AnalysisConfig(budgets=BATCH_BUDGETS))
        for cell in report.cells:
            kind = cell.verdict.kind if cell.verdict else None
            assert kind != NOT_PURE_DISCRETE, (subst, cell.prefix, cell.spec)
            kinds.add(kind)
    return kinds


@contextmanager
def one_step_reachability():
    """analyze with a coincidence_analysis in which a vertex reaches a
    coincidence only through its own edge to one."""
    wrong = _mutant(engine_module, "coincidence_analysis",
                    "stack.append(back)", "pass")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verdict_module, "coincidence_analysis", wrong)
        yield


def test_oracle_reads_the_textbook_examples():
    # Thue-Morse has no coincidence; period doubling has one in column 1
    # of sigma, and its height is 1
    thue_morse = parse_substitution("a -> ab\nb -> ba")
    doubling = parse_substitution("a -> ab\nb -> aa")
    assert not has_coincidence(thue_morse)
    assert has_coincidence(doubling)
    assert height(thue_morse) == height(doubling) == 1
    # 1 -> 121, 2 -> 212 returns to 1 only at even places: height 2
    assert height(parse_substitution("1 -> 121\n2 -> 212")) == 2
    # Fibonacci's x^2 - x - 1 is an irreducible Pisot quadratic;
    # Thue-Morse's x^2 - 2x is reducible, and 1 -> 1222, 2 -> 1's
    # x^2 - x - 3 is irreducible with the root (1 - sqrt 13) / 2 < -1
    assert pisot_quadratic(parse_substitution("1 -> 12\n2 -> 1"))
    assert not pisot_quadratic(thue_morse)
    assert not pisot_quadratic(parse_substitution("1 -> 1222\n2 -> 1"))


def test_decided_verdicts_follow_dekking():
    assert _dekking_check(constant_length_cases()) == {PURE_DISCRETE,
                                                       NOT_PURE_DISCRETE}


def test_decided_verdicts_follow_barge_diamond():
    assert PURE_DISCRETE in _pisot_check(two_letter_pisot_cases())


def test_one_step_reachability_fails_dekking():
    # a vertex reaches a coincidence only through its own edge to one:
    # pure cells read as not pure
    with one_step_reachability():
        with pytest.raises(AssertionError):
            _dekking_check(constant_length_cases())


def test_one_step_reachability_fails_barge_diamond():
    with one_step_reachability():
        with pytest.raises(AssertionError):
            _pisot_check(two_letter_pisot_cases())
