"""The simulator never generates a payload: it only skips through sources.

Corpus-backed :class:`~repro.data.RepeatingSource`\\ s fetch their payload
on the first ``read``; simulated transfers price data by compressibility
class and call ``skip``, so generating the corpus would be pure waste.
"""

from __future__ import annotations

import pytest

from repro.data import Compressibility, RepeatingSource, SyntheticCorpus
from repro.data import corpus as corpus_module
from repro.sim import FleetArrivalSpec, FleetFlowSpec, run_fleet_scenario
from repro.sim.scenario import ScenarioConfig, make_dynamic_factory, run_transfer_scenario

MB = 10**6


@pytest.fixture
def no_payloads(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the simulator generated a corpus payload")

    monkeypatch.setattr(corpus_module, "generate", refuse)


def test_fleet_scenario_generates_no_payload(no_payloads):
    specs = [
        FleetFlowSpec("hi", Compressibility.HIGH, 40 * MB),
        FleetFlowSpec("mod", Compressibility.MODERATE, 30 * MB),
        FleetFlowSpec("lo", Compressibility.LOW, 20 * MB),
    ]
    fleet = run_fleet_scenario(
        specs,
        policy="fair-share",
        arrivals=FleetArrivalSpec(total_flows=9, interval=1.0, mean=3.0, swing=1.0),
        seed=5,
        epoch_seconds=0.5,
    )
    assert fleet.flows_spawned == 9
    assert fleet.total_app_bytes == pytest.approx(3 * (40 + 30 + 20) * MB)


def test_paper_scenario_generates_no_payload(no_payloads):
    result = run_transfer_scenario(
        ScenarioConfig(
            scheme_factory=make_dynamic_factory(),
            compressibility=Compressibility.MODERATE,
            total_bytes=200 * MB,
            n_background=2,
        )
    )
    assert result.total_app_bytes == pytest.approx(200 * MB)


@pytest.mark.parametrize("cls", list(Compressibility))
def test_lazy_source_reads_what_the_eager_source_read(cls):
    corpus = SyntheticCorpus(file_size=5000, seed=3)
    eager = RepeatingSource(corpus.payload(cls), 23_456, cls)
    lazy = RepeatingSource.from_corpus(cls, 23_456, SyntheticCorpus(file_size=5000, seed=3))
    assert lazy.skip(1234) == eager.skip(1234)
    for n in (1, 4999, 7000, 20_000, 10):
        assert lazy.read(n) == eager.read(n)
    assert lazy.exhausted and eager.exhausted


def test_a_source_needs_a_payload_or_a_corpus():
    with pytest.raises(ValueError):
        RepeatingSource(None, 10, Compressibility.LOW)
    with pytest.raises(ValueError):
        RepeatingSource(b"", 10, Compressibility.LOW)
