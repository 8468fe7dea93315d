"""Seeded random scenario generation.

Every scenario is generated from an isolated ``random.Random`` instance
keyed by ``(suite seed, scenario index)``, so scenario ``i`` of seed ``s``
is always the same scenario -- independent of how many scenarios were
generated before it or the order tests run in.  A failing fuzz case
therefore shrinks to a two-number replay token (``"<seed>:<index>"``) that
reproduces it forever.

A replay token pins the scenario *relative to the generator configuration*:
the same seed, index, ``attack_ratio``, application set and attack corpus
always regenerate the same scenario.  Changing any of those (e.g. a
different ``--attack-ratio``, or adding an attack to the corpus) shifts
what a token maps to -- to pin a scenario *permanently*, serialise it with
``Scenario.to_dict()`` (the CLI's ``--replay <token> --spec``) and replay
the dict.

Benign scenarios compose multi-user, multi-tab sessions over the three
case-study applications: logins, topic posting, replies, private messages,
calendar events, blog comments, link clicks and read-only XHR probes --
synchronous *and* asynchronous (``xhr_async`` leaves the completion queued
on the tab's event loop until a later ``advance_time`` / ``drain`` step
runs it) -- all interleaved across 1-3 actors.  Every scenario also draws
an ``interleave`` seed that permutes same-due event-loop tasks, so the
suite explores diverse but perfectly replayable task orderings.  Attack scenarios embed one attack from the
:mod:`repro.attacks` corpus inside such a session: bystanders act before
(and between) the plant and the victim's fatal browse, exactly the
interleaving a real deployment would see.

The benign vocabulary is disjoint from the attack corpus's sentinel strings
("PWNED", "CSRF-FORGED", ...), so success predicates can never trigger on
benign traffic.

Determinism contract: nothing in this module may iterate a ``set`` or rely
on string-hash order at an emission point -- draws come from seeded
``random.Random`` instances over *ordered* pools (tuples, sorted corpus
names), so the same ``(seed, index)`` yields byte-identical specs in any
process, under any ``PYTHONHASHSEED``.  Sharded parallel execution and the
regression corpus both depend on this; it is locked in by
``tests/scenarios/test_determinism.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping

from repro.attacks.harness import APP_KEYS, Attack, registered_attacks

from .model import (
    ROLE_ATTACKER,
    ROLE_BYSTANDER,
    ROLE_VICTIM,
    Actor,
    Scenario,
    Step,
    make_step,
)

#: Bystander name pool ("victim" and "mallory" are reserved roles).
BYSTANDER_NAMES = ("alice", "bob", "carol", "dave", "erin", "frank")

#: Benign text fragments (no markup, no attack sentinels).
_TOPICS = ("carpool plans", "meeting notes", "release schedule", "lunch ideas", "bug triage")
_BODIES = (
    "sounds good to me",
    "let us sync up on thursday",
    "I pushed the latest draft",
    "counting heads for friday",
    "minutes are on the wiki",
)
_EVENT_TITLES = ("standup", "review", "retrospective", "workshop", "office hours")


def parse_replay_token(token: str) -> tuple[str, int, bool]:
    """Split a replay token into ``(seed text, index, forced_benign)``."""
    base = token
    forced_benign = base.endswith(":benign")
    if forced_benign:
        base = base[: -len(":benign")]
    seed_text, _, index_text = base.rpartition(":")
    if not seed_text or not index_text.isdigit():
        raise ValueError(f"malformed replay token {token!r}; expected '<seed>:<index>[:benign]'")
    return seed_text, int(index_text), forced_benign


@cache
def _corpus() -> tuple[Mapping[str, Attack], tuple[str, ...]]:
    """The corpus, built once per process, and its names in sorted order."""
    corpus = {attack.name: attack for attack in registered_attacks()}
    return MappingProxyType(corpus), tuple(sorted(corpus))


def attack_corpus() -> Mapping[str, Attack]:
    """The injectable attack corpus, keyed by attack name (read-only, shared)."""
    return _corpus()[0]


def attack_by_name(name: str) -> Attack:
    """Look one attack up (KeyError with the known names on a miss)."""
    corpus, names = _corpus()
    if name not in corpus:
        raise KeyError(f"unknown attack {name!r}; known: {list(names)}")
    return corpus[name]


@dataclass
class ScenarioGenerator:
    """Deterministic scenario factory.

    ``attack_ratio`` is the per-index probability that a scenario embeds an
    attack; the draw itself is seeded, so the benign/attack split for a given
    seed is fixed.
    """

    seed: int | str = 42
    apps: tuple[str, ...] = ()
    attack_ratio: float = 0.25
    #: Step budget for the benign portion of a scenario.
    min_steps: int = 3
    max_steps: int = 7

    def __post_init__(self) -> None:
        if not self.apps:
            self.apps = APP_KEYS
        unknown = [key for key in self.apps if key not in APP_KEYS]
        if unknown:
            raise ValueError(
                f"no generator vocabulary for application(s) {unknown}; the seeded "
                f"generator covers {APP_KEYS}."
            )

    # -- public API -----------------------------------------------------------------------

    def generate(self, count: int) -> list[Scenario]:
        """The first ``count`` scenarios of this seed."""
        return [self.scenario(index) for index in range(count)]

    def scenario(self, index: int) -> Scenario:
        """Scenario ``index`` of this seed (stable under replay)."""
        rng = self._rng(index)
        gate = rng.random()  # always drawn, so benign() consumes the same stream
        if gate < self.attack_ratio:
            return self._attack_scenario(rng, index)
        return self._benign_scenario(rng, index)

    def benign(self, index: int) -> Scenario:
        """Benign scenario ``index``, bypassing the attack gate.

        Consumes the same gate draw as :meth:`scenario`, so when ``scenario``
        lands on the benign branch the two produce identical steps.  The
        replay token carries a ``:benign`` suffix so the CLI regenerates the
        forced-benign variant, not whatever the gate would have picked.
        """
        rng = self._rng(index)
        rng.random()  # the attack-gate draw scenario() makes
        return self._benign_scenario(rng, index, forced_benign=True)

    def replay(self, token: str) -> Scenario:
        """Regenerate a scenario from its replay token.

        Tokens are ``"<seed>:<index>"`` (gate decides benign vs attack) or
        ``"<seed>:<index>:benign"`` (forced-benign, as :meth:`benign` emits).
        """
        seed_text, index, forced_benign = parse_replay_token(token)
        if str(self.seed) != seed_text:
            raise ValueError(f"replay token {token!r} belongs to seed {seed_text}, not {self.seed}")
        return self.benign(index) if forced_benign else self.scenario(index)

    # -- internals ------------------------------------------------------------------------

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.seed}:{index}")

    def _benign_scenario(
        self, rng: random.Random, index: int, *, forced_benign: bool = False
    ) -> Scenario:
        app_key = rng.choice(self.apps)
        names = rng.sample(BYSTANDER_NAMES, k=rng.randint(1, 3))
        actors = [Actor(name=name, role=ROLE_BYSTANDER) for name in names]
        steps: list[Step] = []
        logged_in: set[str] = set()
        for _ in range(rng.randint(self.min_steps, self.max_steps)):
            actor = rng.choice(actors)
            steps.append(self._benign_step(rng, app_key, actor.name, actors, logged_in))
        return Scenario(
            name=f"benign-{app_key}-{index:04d}",
            app_key=app_key,
            kind="benign",
            actors=actors,
            steps=steps,
            replay=f"{self.seed}:{index}" + (":benign" if forced_benign else ""),
            interleave=self._interleave(rng),
        )

    def _attack_scenario(self, rng: random.Random, index: int) -> Scenario:
        corpus, names = _corpus()
        attack = corpus[rng.choice(names)]
        victim = Actor(name="victim", role=ROLE_VICTIM)
        attacker = Actor(name="mallory", role=ROLE_ATTACKER)
        bystanders = [
            Actor(name=name, role=ROLE_BYSTANDER)
            for name in rng.sample(BYSTANDER_NAMES, k=rng.randint(0, 2))
        ]
        actors = [victim, attacker] + bystanders
        logged_in: set[str] = set()
        steps: list[Step] = []

        def bystander_noise(budget: int) -> None:
            for _ in range(budget):
                actor = rng.choice(bystanders)
                steps.append(
                    self._benign_step(rng, attack.app_key, actor.name, bystanders, logged_in)
                )

        if bystanders:
            bystander_noise(rng.randint(0, 3))
        if attack.requires_login:
            steps.append(make_step(victim.name, "login", username=victim.name))
            # The victim may keep browsing the target application before the
            # attack lands (the CSRF predicate only counts cross-site
            # requests, so the app's own trusted traffic cannot trip it).
            if rng.random() < 0.5:
                steps.append(
                    make_step(victim.name, "visit", path=self._browse_path(rng, attack.app_key))
                )
        steps.append(make_step(attacker.name, "attack_plant"))
        if bystanders and rng.random() < 0.5:
            bystander_noise(1)
        steps.append(make_step(victim.name, "attack_victim"))
        return Scenario(
            name=f"attack-{attack.name}-{index:04d}",
            app_key=attack.app_key,
            kind="attack",
            actors=actors,
            steps=steps,
            replay=f"{self.seed}:{index}",
            attack_name=attack.name,
            interleave=self._interleave(rng),
        )

    @staticmethod
    def _interleave(rng: random.Random) -> int:
        """The scenario's task-ordering seed.

        Drawn *last* (after every step), so the field itself shifts no
        earlier draw.  (What a ``(seed, index)`` token maps to still moved
        in this revision because the benign *vocabulary* grew -- replay
        tokens are only ever stable relative to the generator configuration;
        see the module docstring.  Pinned full specs are the durable form.)
        Always non-zero: every generated scenario carries an explicit
        ordering.
        """
        return rng.randint(1, 2**31 - 1)

    def _browse_path(self, rng: random.Random, app_key: str) -> str:
        paths = {
            "phpbb": ("/", "/viewtopic?t=1", "/viewtopic?t=2"),
            "phpcalendar": ("/", "/view?id=1", "/view?id=2"),
            "blog": ("/", "/post?id=1"),
        }
        return rng.choice(paths.get(app_key, ("/",)))

    def _benign_step(
        self,
        rng: random.Random,
        app_key: str,
        actor: str,
        actors: list[Actor],
        logged_in: set[str],
    ) -> Step:
        """One benign action for ``actor``, respecting login preconditions."""
        needs_login = {
            "phpbb": ("post_topic", "reply", "send_pm"),
            "phpcalendar": ("create_event",),
            "blog": (),
        }[app_key]
        anonymous = {
            "phpbb": ("visit", "click_topic", "xhr_get", "xhr_async", "advance_time", "drain"),
            "phpcalendar": ("visit", "xhr_get", "xhr_async", "drain"),
            "blog": ("visit", "comment", "advance_time"),
        }[app_key]
        pool = anonymous + needs_login + ("login",)
        action = rng.choice(pool)
        if action in needs_login and actor not in logged_in:
            action = "login"
        body = rng.choice(_BODIES)
        if action == "login":
            logged_in.add(actor)
            return make_step(actor, "login", username=actor)
        if action == "visit":
            return make_step(actor, "visit", path=self._browse_path(rng, app_key))
        if action == "click_topic":
            return make_step(actor, "click_topic", topic=rng.choice(("1", "2")))
        if action == "xhr_get":
            path = "/api/unread" if app_key == "phpbb" else "/api/event_count"
            return make_step(actor, "xhr_get", path=path, tab=-1)
        if action == "xhr_async":
            # The completion stays queued on the tab's loop until a later
            # advance_time/drain step (by any schedule) runs it -- or the
            # scenario ends with it pending, which must also be deterministic.
            path = "/api/unread" if app_key == "phpbb" else "/api/event_count"
            return make_step(actor, "xhr_async", path=path, tab=-1)
        if action == "advance_time":
            return make_step(actor, "advance_time", ms=rng.choice(("1", "5", "10")), tab=-1)
        if action == "drain":
            return make_step(actor, "drain", tab=-1)
        if action == "post_topic":
            return make_step(actor, "post_topic", subject=rng.choice(_TOPICS), message=body)
        if action == "reply":
            return make_step(actor, "reply", topic=rng.choice(("1", "2")), message=body)
        if action == "send_pm":
            recipients = [a.name for a in actors if a.name != actor] or [actor]
            return make_step(
                actor, "send_pm", to=rng.choice(recipients), subject=rng.choice(_TOPICS), body=body
            )
        if action == "create_event":
            return make_step(
                actor,
                "create_event",
                date=f"2010-04-{rng.randint(10, 28):02d}",
                title=rng.choice(_EVENT_TITLES),
                description=body,
            )
        if action == "comment":
            return make_step(actor, "comment", post="1", author=actor, body=body)
        raise AssertionError(f"unhandled benign action {action!r}")
