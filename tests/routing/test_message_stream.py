"""Pinned control-plane message streams.

The benchmark's digests cover ``scenario_to_dict`` only, which counts
messages but says nothing about who sent which one, when, or how large it
was.  This test pins, per protocol, mobility model and radio range, sha256
digests of the result, the route-change stream and the full message stream
of one short churn run.  A change to ``RoutingProtocol._send``/``_flood``,
the reliable session layer or the reactive discovery engine that reorders,
drops, adds or resizes a single message moves a digest here.

Regenerate the table (only when a behaviour change is intended, and say why)
with ``PYTHONPATH=src python tests/routing/test_message_stream.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import ChurnConfig, ExperimentConfig, run_churn_scenario
from repro.experiments import scenario as scenario_module
from repro.experiments.config import MATRIX_PROTOCOLS, MOBILITY_MODELS
from repro.experiments.persistence import scenario_to_dict
from repro.obs.flight import FlightRecorder

SEED = 7

#: The benchmark's churn field, and a sparser one that partitions: reactive
#: discoveries there time out and retry, and the distance-vector protocols
#: count to infinity.
RADIO_RANGES = (400.0, 250.0)

CASES = [
    (protocol, model, radio_range)
    for radio_range in RADIO_RANGES
    for protocol in MATRIX_PROTOCOLS
    for model in MOBILITY_MODELS
]

#: (protocol, model, radio range) -> (result, route stream, message stream)
#: sha256 prefixes.
PINNED: dict[tuple[str, str, float], tuple[str, str, str]] = {
    ('rip', 'waypoint', 400.0): ('a35358eb079002eb', '351335f90190bde4', '20b4021f3b10ac91'),
    ('rip', 'gauss-markov', 400.0): ('defaaf15c8892e78', '928c3c3443ff12a6', '63d85ce9bd112f7d'),
    ('rip', 'manhattan', 400.0): ('8c95b5f8b179ae2b', '9f1a98e9c0392190', 'c07f8bb224e19737'),
    ('dbf', 'waypoint', 400.0): ('443f282914b56de3', '0fb1fcaf3406bece', '88f4ae543ca196a2'),
    ('dbf', 'gauss-markov', 400.0): ('31004f31db92cd80', '253b09832fa85c78', '48b5c931b9789fda'),
    ('dbf', 'manhattan', 400.0): ('67b588cf7b3c71e7', 'c78426d8bcb2a9a5', 'f90f36d8d8440450'),
    ('bgp', 'waypoint', 400.0): ('e4e08fdcaadf85be', 'eeddbbc9e07f7c8b', '84bc370763c4670f'),
    ('bgp', 'gauss-markov', 400.0): ('fe2ecdfa1710cfb8', '95849e6bf8c845c4', '4a1045198a3a473a'),
    ('bgp', 'manhattan', 400.0): ('447cc1cd7b04f718', 'ffefd424f69214f9', 'd0b405b0b3fc08a3'),
    ('bgp3', 'waypoint', 400.0): ('336050db3340bf81', '86b3bfca4d30cf04', '9d7b08cb97bcc102'),
    ('bgp3', 'gauss-markov', 400.0): ('bcfcbb495ce59b73', '1262685e3687d5d0', 'ef50bea5a65837ae'),
    ('bgp3', 'manhattan', 400.0): ('d6ec372faeb380b0', '67e5d17dc05b3ced', '59c312581c2edd2c'),
    ('spf', 'waypoint', 400.0): ('eb55313642ddd844', '687f5858970c0fa1', 'ca7739964ca1bbfb'),
    ('spf', 'gauss-markov', 400.0): ('cab26fd5335b34c9', '67bc18eb78ac0851', '82ee7e39ba67cab8'),
    ('spf', 'manhattan', 400.0): ('4512b155e1ff70b9', '55435b8943ccfed2', '2dcd03c3540fe55c'),
    ('dual', 'waypoint', 400.0): ('382dc0dcde8f6946', 'ab4838fdb4b4fab1', '37520189b2a71669'),
    ('dual', 'gauss-markov', 400.0): ('596375e8909984a0', 'd0871d45944ad8da', 'd1d4fa7f3704a31a'),
    ('dual', 'manhattan', 400.0): ('434a179a4169252c', '40602268b2f05f36', '76c1b7f0a40b8413'),
    ('aodv', 'waypoint', 400.0): ('f3b5198e559c7adf', '3c73ffd63275588a', '4eddda65d6544209'),
    ('aodv', 'gauss-markov', 400.0): ('ee10ce4f6df56646', '498745a163aebee9', 'fa7d5350fbb57b7b'),
    ('aodv', 'manhattan', 400.0): ('ee940db5151afcf6', 'ed7f82750d910c5b', '80ac10f287f05a4f'),
    ('dsr', 'waypoint', 400.0): ('09873676a3dc88b3', '4f53cda18c2baa0c', '7d59de0155ca35c4'),
    ('dsr', 'gauss-markov', 400.0): ('5e5fa3b0cf9664ef', '4f53cda18c2baa0c', 'a0e4a5e140bc60f2'),
    ('dsr', 'manhattan', 400.0): ('c84b7c2066076f2a', '4f53cda18c2baa0c', '85c5b7a62d7fc02f'),
    ('olsr', 'waypoint', 400.0): ('a82fcbbaabd467dd', 'fe48a3897a2183f2', '654a07b2d617b042'),
    ('olsr', 'gauss-markov', 400.0): ('e971db4d28309e45', '78e4eac8838d712f', '771173c07959d696'),
    ('olsr', 'manhattan', 400.0): ('98ff1c4227a94be8', '6f069161eb815f20', 'bea704a624c6ed00'),
    ('rip', 'waypoint', 250.0): ('b97f5e02a3754307', '13a3bdbb60c877be', 'dd458f175c207e29'),
    ('rip', 'gauss-markov', 250.0): ('dc7cf1b44219dc2a', 'b98eb72ec1771d47', '838b02c6dfd00b00'),
    ('rip', 'manhattan', 250.0): ('1bff48325402dd45', '597298538a9b48e9', '5a62c8e7deb5ec5e'),
    ('dbf', 'waypoint', 250.0): ('044d77327f2b3eca', 'd26514613f2aa524', '7540d710a7f7ee04'),
    ('dbf', 'gauss-markov', 250.0): ('d687cdcddf6f6e9f', '80d0784df5a103d1', '0b73995042460dca'),
    ('dbf', 'manhattan', 250.0): ('9f1a1aea504e60df', '9d090149ab9d8e6a', 'eed445d181632bea'),
    ('bgp', 'waypoint', 250.0): ('25bab487ca49cd17', 'a1c9dea99acd26d5', 'c973147bc5494ee1'),
    ('bgp', 'gauss-markov', 250.0): ('8b9ed78b23b17fb3', 'aa38730dd32c48a6', '9069785484e6098e'),
    ('bgp', 'manhattan', 250.0): ('ffea58585ac2d941', 'e6f71cd83dfe09f1', 'd25e491e21d345e2'),
    ('bgp3', 'waypoint', 250.0): ('6852f486ae8ac34c', '4210d05504e96271', 'b3fe15af08a2577e'),
    ('bgp3', 'gauss-markov', 250.0): ('2c383c9fa27e2703', '8400ca0c3b34fb83', 'a3b8d191a659769b'),
    ('bgp3', 'manhattan', 250.0): ('05d41dbfc2b01daa', '3f79e3dbb133655b', '39b26694c5af112d'),
    ('spf', 'waypoint', 250.0): ('34b49fc340087312', '179ce4dbf7cff7e9', '5565b6c84891e6b0'),
    ('spf', 'gauss-markov', 250.0): ('20b6e06e3e09d00d', '749216ac8d403ab3', '8d6bf38a346ff24e'),
    ('spf', 'manhattan', 250.0): ('91b3713e639555f5', '031fead33b883802', 'a1de6abfca40d984'),
    ('dual', 'waypoint', 250.0): ('f971ee57cc68ddab', 'a2ab14ec539f9ea2', 'c976b5a85d950f6f'),
    ('dual', 'gauss-markov', 250.0): ('d45b55d050e4730f', '598a3f276a4765f0', '6c911df83186e3e0'),
    ('dual', 'manhattan', 250.0): ('293b83ab010b3db6', '7b0891c8cff0c1e6', '25ad7d5c567e83ec'),
    ('aodv', 'waypoint', 250.0): ('2cc591c738047a05', 'e5a466e5ca9193ea', 'e468cec386c43910'),
    ('aodv', 'gauss-markov', 250.0): ('c782a093ffe68ad6', '300feed6fe00ca70', '1c9882ab1070a4a9'),
    ('aodv', 'manhattan', 250.0): ('c25c91b812555568', '4618d6b89982075c', 'ba696781edece687'),
    ('dsr', 'waypoint', 250.0): ('6a982f2c1c22ae6b', '4f53cda18c2baa0c', '5452bfe73e4ffa82'),
    ('dsr', 'gauss-markov', 250.0): ('79fe66a5c7d5b126', '4f53cda18c2baa0c', '2014abc9732defa4'),
    ('dsr', 'manhattan', 250.0): ('8d584691e1022f29', '4f53cda18c2baa0c', 'f03de057605f4afb'),
    ('olsr', 'waypoint', 250.0): ('51454dd27226c732', '4490a5d19bc69008', '173988b957ce83bf'),
    ('olsr', 'gauss-markov', 250.0): ('68e395bf82ac5279', 'f810c19e3b45cab3', 'b361940f74a4257e'),
    ('olsr', 'manhattan', 250.0): ('54911030e2094639', '3b32596e040491c6', '665aa30d81c30496'),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cell(protocol: str, model: str, radio_range: float, patch):
    """One churn run: its result, its trace recording and the most fail
    listeners any one link held at the end of the run."""
    recorder, listeners = FlightRecorder(), []
    to_result = scenario_module.ScenarioRun.to_result

    def counting_listeners(run):
        # Read the live network: to_result ends the run and drops them.
        links = run.network.links.values()
        listeners.append(max(len(link.fail_listeners) for link in links))
        return to_result(run)

    config = ExperimentConfig.quick().with_(
        validate=True,
        post_fail_window=20.0,
        churn=ChurnConfig(model=model, n_nodes=16, radio_range=radio_range),
    )
    with patch.context() as p:
        p.setattr(scenario_module.ScenarioRun, "to_result", counting_listeners)
        result = run_churn_scenario(protocol, SEED, config, recorder=recorder)
    return result, recorder.streams, listeners[0]


def stream_digests(case: tuple[str, str, float], patch) -> tuple[str, str, str]:
    result, trace, _ = run_cell(*case, patch)
    assert trace["message"], f"{case} sent no messages"
    return (
        _sha(json.dumps(scenario_to_dict(result), sort_keys=True)),
        _sha(repr([tuple(r) for r in trace["route"]])),
        _sha(repr([tuple(r) for r in trace["message"]])),
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]:g}")
def test_message_stream_is_pinned(monkeypatch, case):
    assert stream_digests(case, monkeypatch) == PINNED[case]


@pytest.mark.parametrize("model", MOBILITY_MODELS)
@pytest.mark.parametrize("protocol", ["bgp3", "dual"])
def test_closed_sessions_leave_no_link_listeners(monkeypatch, protocol, model):
    """A session closed by a failure detaches from its link, so however often
    a link flaps it carries at most one listener per direction."""
    result, _, listeners = run_cell(protocol, model, RADIO_RANGES[0], monkeypatch)
    assert result.events, "the seed must actually churn links"
    assert 1 <= listeners <= 2


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    for case in CASES:
        print(f"    {case!r}: {stream_digests(case, patch)!r},")
