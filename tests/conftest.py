"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.codecs import (
    Bz2Codec,
    LightZlibCodec,
    LzmaCodec,
    MediumZlibCodec,
    NullCodec,
    RleCodec,
)
from repro.data import Compressibility, SyntheticCorpus

# ``HYPOTHESIS_PROFILE=ci`` draws the same examples on every run and
# prints a reproduction blob on failure, so a gate that passed once
# passes again on the same tree.  The default profile keeps searching
# with fresh random seeds.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def corpus() -> SyntheticCorpus:
    """One shared synthetic corpus (generation is not free)."""
    return SyntheticCorpus(file_size=64 * 1024, seed=7)


@pytest.fixture(scope="session")
def high_payload(corpus) -> bytes:
    return corpus.payload(Compressibility.HIGH)


@pytest.fixture(scope="session")
def moderate_payload(corpus) -> bytes:
    return corpus.payload(Compressibility.MODERATE)


@pytest.fixture(scope="session")
def low_payload(corpus) -> bytes:
    return corpus.payload(Compressibility.LOW)


def all_codecs():
    """Every codec family at one representative setting."""
    return [
        NullCodec(),
        LightZlibCodec(),
        MediumZlibCodec(),
        LzmaCodec(preset=0),
        Bz2Codec(level=1),
        RleCodec(),
    ]


@pytest.fixture(params=all_codecs(), ids=lambda c: c.name)
def codec(request):
    return request.param
