from pathlib import Path

import pytest

import strategies as fixtures
from strategies import FIXTURES_DIR


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES_DIR


@pytest.fixture
def s1_net():
    return fixtures.s1()


@pytest.fixture
def s2_net():
    return fixtures.s2()


@pytest.fixture
def s3_net():
    return fixtures.s3()
