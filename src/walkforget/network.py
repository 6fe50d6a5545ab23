"""Token routing and message transcripts.

The observation model (holder semantics, as in Cyffers & Bellet 2022,
"Privacy Amplification by Decentralization"): a client sees the models it
receives and the models it makes, nothing else. A run of hops at other
clients reaches it only as the model it next receives. The transcript is a
log of the whole walk, not any one client's view.

Routing comes in two flavors, a uniform walk to one of the other clients
(training) and an i.i.d. restart rule that targets one client with
probability p (unlearning). The graph is complete, so the i.i.d. rule can
reselect the current holder and those transcripts may contain self-hops;
the uniform walk never does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Graph, params_hash

__all__ = [
    "Message",
    "Transcript",
    "route_uniform",
    "route_restart",
    "route_restart_many",
]


@dataclass(frozen=True, slots=True)
class Message:
    """One token hop: the token passed from sender to receiver at this round.

    ``payload_hash`` is ``core.params_hash`` of the model after the
    *receiver's* step, not of the model the sender passed on. A transcript
    keeps its hops as columns and builds a message on each read.
    """

    round: int
    sender: int
    receiver: int
    at_target: bool  # update was performed at the unlearning client
    payload_hash: str


class Transcript:
    """A walk's hops as columns; payload hashes are made on each read.

    Hop ``t`` is round ``t``. ``payloads[t - 1]`` is its iterate, a row of a
    narrow walk's ``(H, d)`` array, or that iterate's hash string, made at
    the hop by a wide walk. Two transcripts are equal when their messages are.
    """

    __slots__ = ("rounds", "senders", "receivers", "at_target", "_payloads")

    def __init__(self, senders, receivers, target: int, payloads):
        if not len(senders) == len(receivers) == len(payloads):
            raise ValueError("a transcript needs one sender, receiver and payload per hop")
        self.rounds = range(1, len(receivers) + 1)
        self.senders, self.receivers = tuple(senders), tuple(receivers)
        self.at_target = tuple(cur == target for cur in receivers)
        self._payloads = payloads

    def _hashes(self):
        if isinstance(self._payloads, np.ndarray):
            return map(params_hash, self._payloads)
        return iter(self._payloads)

    def __iter__(self):
        return map(Message, self.rounds, self.senders, self.receivers, self.at_target,
                   self._hashes())

    @property
    def messages(self) -> tuple:
        return tuple(self)

    def __len__(self) -> int:
        return len(self.receivers)

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        return self.messages == other.messages

    def visit_count(self, client: int) -> int:
        return self.receivers.count(client)

    def target_visits(self) -> int:
        return sum(map(bool, self.at_target))

    def to_lines(self) -> list:
        """Line-delimited export: round, sender, receiver, at_u flag, hash."""
        return [
            f"{t},{snd},{rcv},{int(at_u)},{digest}"
            for t, snd, rcv, at_u, digest in zip(
                self.rounds, self.senders, self.receivers, self.at_target, self._hashes()
            )
        ]


def route_uniform(current: int, graph: Graph, rng: np.random.Generator) -> int:
    """Next holder of the token: uniform over the other clients.

    The graph is complete, so the draw is O(1) with no neighbor list.
    """
    n = graph.num_clients
    k = int(rng.integers(1, n))  # offset in 1..n-1
    nxt = current + k
    if nxt > n:
        nxt -= n
    return nxt


def route_restart(target: int, p: float, graph: Graph, rng: np.random.Generator) -> int:
    """Route to the unlearning client with probability p, else uniform elsewhere.

    The draw is independent of the current holder, which is equivalent to a
    walk on a complete graph; a miss is ``route_uniform`` away from the target.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    return target if rng.random() < p else route_uniform(target, graph, rng)


def route_restart_many(
    target: int, p: float, graph: Graph, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Vectorized i.i.d. draws from the restart routing law (Monte Carlo use)."""
    n = graph.num_clients
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0,1]")
    vals = target + rng.integers(1, n, size=size)
    vals[vals > n] -= n
    vals[rng.random(size) < p] = target
    return vals
