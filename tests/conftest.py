"""Shared test helpers."""

import itertools
import threading

import pytest

from repro.aig import AIG


def bits_of(value, width):
    """Little-endian bit list of *value*."""
    return [(value >> k) & 1 for k in range(width)]


def word_of(bits):
    """Integer from a little-endian bit list."""
    return sum(bit << k for k, bit in enumerate(bits))


def exhaustive_counterexample(aig_a, aig_b):
    """First input assignment on which the circuits differ, else None."""
    assert aig_a.num_inputs == aig_b.num_inputs
    assert aig_a.num_outputs == aig_b.num_outputs
    for assignment in itertools.product([0, 1], repeat=aig_a.num_inputs):
        bits = list(assignment)
        if aig_a.evaluate(bits) != aig_b.evaluate(bits):
            return bits
    return None


def assert_equivalent_exhaustive(aig_a, aig_b):
    cex = exhaustive_counterexample(aig_a, aig_b)
    assert cex is None, "circuits differ on %r" % (cex,)


@pytest.fixture
def tiny_aig():
    """A 3-input AIG computing (a & b) | ~c with named ports."""
    aig = AIG("tiny")
    a = aig.add_input("a")
    b = aig.add_input("b")
    c = aig.add_input("c")
    aig.add_output(aig.add_or(aig.add_and(a, b), c ^ 1), "y")
    return aig


@pytest.fixture()
def gate(monkeypatch):
    """Jobs of every ``workers=0`` ``CecServer`` in this process wait
    on this event before they run. It starts open; a test clears it to
    hold jobs."""
    from repro.service import server as server_module

    event = threading.Event()
    event.set()
    execute_job = server_module.execute_job

    def gated_job(payload):
        event.wait(30)
        return execute_job(payload)

    monkeypatch.setattr(server_module, "execute_job", gated_job)
    yield event
    event.set()
