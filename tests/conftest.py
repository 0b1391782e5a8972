import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from morphauto import parse_morphism
from morphauto.cli import corpus_dir

CORPUS = corpus_dir()


def load(name):
    return parse_morphism((CORPUS / f"{name}.morph").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpus_path():
    return CORPUS


@pytest.fixture(scope="session")
def istrail():
    return load("istrail")


@pytest.fixture(scope="session")
def berstel():
    return load("berstel")


@pytest.fixture(scope="session")
def lysenok():
    return load("lysenok")


@pytest.fixture(scope="session")
def lysenok_psi():
    return load("lysenok_psi")


@pytest.fixture(scope="session")
def grig_aca_aba():
    return load("grig_aca_aba")


@pytest.fixture(scope="session")
def xzy():
    return load("xzy")


@pytest.fixture(scope="session")
def acaba():
    return load("acaba")


@pytest.fixture(scope="session")
def muntyan_pd():
    return load("muntyan_pd")


@pytest.fixture(scope="session")
def thue_morse():
    return load("thue_morse")


@pytest.fixture(scope="session")
def tm_cube():
    return load("tm_cube")


@pytest.fixture(scope="session")
def period_doubling():
    return load("period_doubling")


@pytest.fixture(scope="session")
def anagram7():
    return load("anagram7")


@pytest.fixture(scope="session")
def a285249():
    return load("a285249")


@pytest.fixture(scope="session")
def fibonacci():
    return load("fibonacci")


@pytest.fixture(scope="session")
def fib_bc():
    return load("fib_bc")


@pytest.fixture(scope="session")
def fib_cd():
    return load("fib_cd")


@pytest.fixture(scope="session")
def fib_constant():
    return load("fib_constant")


@pytest.fixture(scope="session")
def benli():
    return load("benli")


@pytest.fixture(scope="session")
def nekra_blocks():
    return load("nekra_blocks")
