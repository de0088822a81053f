import json
from pathlib import Path

import pytest

import balpair
from balpair import parse_substitution

FIXTURES = Path(balpair.__file__).parent / "fixtures"

CORPUS_NAMES = ["ex1", "const-len", "exnoncon", "reducible3", "mt-rewrite",
                "pisot-rewrite"]


def load_corpus(name):
    return parse_substitution((FIXTURES / f"{name}.sub").read_text())


def load_expect(name):
    return json.loads((FIXTURES / f"{name}.expect.json").read_text())


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture(scope="session")
def corpus():
    return {name: load_corpus(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
