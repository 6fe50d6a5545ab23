"""Token routing, message transcripts, and per-observer views.

The observation model: a client sees exactly the messages it sent or
received, nothing else. Routing comes in two flavors, a uniform walk to
one of the other clients (training) and an i.i.d. restart rule that
targets one client with probability p (unlearning). The graph is complete,
so the i.i.d. rule can reselect the current holder and those transcripts
may contain self-hops; the uniform walk never does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Graph

__all__ = [
    "Message",
    "Transcript",
    "View",
    "route_uniform",
    "route_restart",
    "route_restart_many",
    "first_observation_param",
    "extract_view",
]


@dataclass(frozen=True, slots=True)
class Message:
    """One token hop: sender forwarded the model to receiver at this round.

    Slotted: a walk keeps one per hop, and on CPython 3.11 a slotted
    instance takes 72 bytes where one with a ``__dict__`` takes 112.
    """

    round: int
    sender: int
    receiver: int
    at_target: bool  # update was performed at the unlearning client
    payload_hash: str


@dataclass(frozen=True)
class Transcript:
    messages: tuple

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        rounds = [m.round for m in self.messages]
        if rounds != sorted(rounds) or len(set(rounds)) != len(rounds):
            raise ValueError("rounds must be strictly increasing")

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)

    def visit_count(self, client: int) -> int:
        return sum(1 for m in self.messages if m.receiver == client)

    def target_visits(self) -> int:
        return sum(1 for m in self.messages if m.at_target)

    def to_lines(self) -> list:
        """Line-delimited export: round, sender, receiver, at_u flag, hash."""
        return [
            f"{m.round},{m.sender},{m.receiver},{int(m.at_target)},{m.payload_hash}"
            for m in self.messages
        ]

    @staticmethod
    def from_lines(lines) -> "Transcript":
        msgs = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rnd, snd, rcv, flag, digest = line.split(",")
            msgs.append(Message(int(rnd), int(snd), int(rcv), bool(int(flag)), digest))
        return Transcript(tuple(msgs))


@dataclass(frozen=True)
class View:
    """The subsequence of a transcript visible to one observer."""

    observer: int
    messages: tuple

    def __post_init__(self):
        object.__setattr__(self, "messages", tuple(self.messages))
        for m in self.messages:
            if m.sender != self.observer and m.receiver != self.observer:
                raise ValueError("view contains a message not touching observer")

    def __len__(self) -> int:
        return len(self.messages)


def route_uniform(current: int, graph: Graph, rng: np.random.Generator) -> int:
    """Next holder of the token: uniform over the other clients.

    The graph is complete, so the draw is O(1) with no neighbor list.
    """
    n = graph.num_clients
    if n < 2:
        raise ValueError("need at least 2 clients")
    k = int(rng.integers(1, n))  # offset in 1..n-1
    nxt = current + k
    if nxt > n:
        nxt -= n
    return nxt


def route_restart(target: int, p: float, graph: Graph, rng: np.random.Generator) -> int:
    """Route to the unlearning client with probability p, else uniform elsewhere.

    The draw is independent of the current holder, which is equivalent to a
    walk on a complete graph.
    """
    n = graph.num_clients
    if n < 2:
        raise ValueError("need at least 2 clients")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    if rng.random() < p:
        return target
    k = int(rng.integers(1, n))
    nxt = target + k
    if nxt > n:
        nxt -= n
    return nxt


def route_restart_many(
    target: int, p: float, graph: Graph, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized i.i.d. draws from the restart routing law (Monte Carlo use)."""
    n = graph.num_clients
    if n < 2:
        raise ValueError("need at least 2 clients")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    vals = target + rng.integers(1, n, size=size)
    vals[vals > n] -= n
    vals[rng.random(size) < p] = target
    return vals


def first_observation_param(p: float, n_clients: int) -> float:
    """Per-hop probability q = (1-p)/(N-1) that an observer first sees the token.

    q is the parameter of the geometric first-observation delay for any
    observer other than the unlearning client.
    """
    if n_clients < 2:
        raise ValueError("need at least 2 clients")
    if not 0.0 <= p < 1.0:
        raise ValueError("p must lie in [0,1); p=1 means the delay is infinite")
    return (1.0 - p) / (n_clients - 1)


def extract_view(transcript, observer: int) -> View:
    """Messages with the observer as an endpoint, in transcript order.

    Accepts a Transcript or a View; re-extracting from a view with the same
    observer is the identity.
    """
    picked = tuple(
        m
        for m in transcript.messages
        if m.sender == observer or m.receiver == observer
    )
    return View(observer=observer, messages=picked)
