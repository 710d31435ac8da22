"""Seeded inputs for the benchmark: players, probes and their joint chains.

Everything here is plain Python and independent of probefp.  A player is a
deterministic Mealy machine table; a probe is a table of outcomes whose
weights are affine in the probe parameters, (c0, cx, cy) meaning
c0 + cx*x + cy*y.  The program only ever sees the text files rendered from
these tables; the benchmark's reference solver (reference.py) reads the
tables directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ACTIONS = ("C", "D")
X = (0, 1, 0)
Y = (0, 0, 1)
REST = (1, -1, -1)  # 1 - x - y

PD_PAYOFF = {("C", "C"): 3, ("C", "D"): 0, ("D", "C"): 5, ("D", "D"): 1}


@dataclass(frozen=True)
class Player:
    """Deterministic player: step[(state, opponent move)] = (next, move)."""

    name: str
    n_states: int
    start_action: str
    step: tuple[tuple[tuple[int, str], tuple[int, str]], ...]

    @property
    def table(self) -> dict[tuple[int, str], tuple[int, str]]:
        return dict(self.step)

    def text(self) -> str:
        lines = [f"player {self.name}", "alphabet C D", f"start s0 {self.start_action}"]
        for (s, a), (t, out) in self.step:
            lines.append(f"s{s} {a} -> s{t} {out}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ProbeSpec:
    """Probe table: outcomes are (move, next state, affine weight)."""

    name: str
    n_states: int
    init: tuple[tuple[str, int, tuple[int, int, int]], ...]
    step: tuple[tuple[tuple[int, str], tuple[tuple[str, int, tuple[int, int, int]], ...]], ...]

    def text(self) -> str:
        lines = [f"probe {self.name}", "alphabet C D"]
        for action, state, w in self.init:
            lines.append(f"init {action} q{state} : {_weight_text(w)}")
        for (s, a), outcomes in self.step:
            for action, state, w in outcomes:
                lines.append(f"q{s} {a} -> {action} q{state} : {_weight_text(w)}")
        return "\n".join(lines) + "\n"


def _weight_text(w: tuple[int, int, int]) -> str:
    return {X: "x", Y: "y", REST: "1 - x - y"}[w]


def parse_player_text(text: str) -> Player:
    """Read the player file format (the subset the bundled files use)."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    name = lines[0][1]
    start_state, start_action = lines[2][1], lines[2][2]
    index = {start_state: 0}
    step = []
    for state, move, _, nxt, out in lines[3:]:
        s = index.setdefault(state, len(index))
        t = index.setdefault(nxt, len(index))
        step.append(((s, move), (t, out)))
    return Player(name, len(index), start_action, tuple(step))


def joss_ann_spec(base: Player) -> ProbeSpec:
    """The Joss-Ann probe of a base player: C with weight x, D with weight y,
    otherwise the base player's move; states follow the base player."""
    table = base.table

    def spread(move: str, state: int):
        return (("C", state, X), ("D", state, Y), (move, state, REST))

    return ProbeSpec(
        name=f"joss_ann({base.name})",
        n_states=base.n_states,
        init=spread(base.start_action, 0),
        step=tuple(
            ((s, a), spread(table[(s, a)][1], table[(s, a)][0]))
            for s in range(base.n_states)
            for a in ACTIONS
        ),
    )


def random_player(rng: random.Random, n_states: int, name: str) -> Player:
    """Uniform random machine with every state reachable from the start."""
    while True:
        step = tuple(
            ((s, a), (rng.randrange(n_states), rng.choice(ACTIONS)))
            for s in range(n_states)
            for a in ACTIONS
        )
        succ = {s: [t for (u, _), (t, _) in step if u == s] for s in range(n_states)}
        if _all_reachable(n_states, succ):
            return Player(name, n_states, rng.choice(ACTIONS), step)


def random_probe(rng: random.Random, n_states: int, name: str) -> ProbeSpec:
    """Noisy deterministic probe: a random response with weight 1 - x - y,
    plus C with weight x and D with weight y to random states."""
    while True:
        def outcomes():
            move, state = rng.choice(ACTIONS), rng.randrange(n_states)
            return (
                ("C", rng.randrange(n_states), X),
                ("D", rng.randrange(n_states), Y),
                (move, state, REST),
            )

        init = outcomes()
        step = tuple(((s, a), outcomes()) for s in range(n_states) for a in ACTIONS)
        succ = {s: [t for (u, _), outs in step if u == s for _, t, _ in outs]
                for s in range(n_states)}
        succ[-1] = [t for _, t, _ in init]
        if _all_reachable(n_states, succ, root=-1):
            return ProbeSpec(name, n_states, init, step)


def _all_reachable(n: int, succ: dict[int, list[int]], root: int = 0) -> bool:
    seen = {root}
    frontier = [root]
    while frontier:
        for t in succ[frontier.pop()]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return all(s in seen for s in range(n))


# ---------------------------------------------------------------------------
# Joint chain structure
# ---------------------------------------------------------------------------


@dataclass
class Joint:
    """The joint player-probe chain, with transition weights kept affine:
    P(x, y) = a + x * b + y * c, and the same for the initial distribution."""

    states: list[tuple[int, int, str, str]]
    trans: list[dict[int, list[int]]]  # trans[s][t] = [c0, cx, cy]
    init: dict[int, list[int]]
    payoff: list[int]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def irreducible(self) -> bool:
        """Strongly connected under generic interior parameters."""
        n = self.n_states
        forward = {s: list(self.trans[s]) for s in range(n)}
        backward: dict[int, list[int]] = {s: [] for s in range(n)}
        for s in range(n):
            for t in self.trans[s]:
                backward[t].append(s)
        return _all_reachable(n, forward) and _all_reachable(n, backward)


def joint_chain(player: Player, probe: ProbeSpec, payoff=PD_PAYOFF) -> Joint:
    """Joint states (player state, probe state, player move, probe move)
    reachable from the initial round, in breadth-first order."""
    table = player.table
    probe_step = dict(probe.step)
    index: dict[tuple, int] = {}
    states: list[tuple] = []
    trans: list[dict[int, list[int]]] = []

    def intern(js) -> int:
        if js not in index:
            index[js] = len(states)
            states.append(js)
            trans.append({})
        return index[js]

    init: dict[int, list[int]] = {}
    for move, q, w in probe.init:
        s = intern((0, q, player.start_action, move))
        _accumulate(init, s, w)
    head = 0
    while head < len(states):
        p, q, pa, qa = states[head]
        nxt, move = table[(p, qa)]
        for out, nq, w in probe_step[(q, pa)]:
            t = intern((nxt, nq, move, out))
            _accumulate(trans[head], t, w)
        head += 1
    return Joint(states, trans, init, [payoff[(js[2], js[3])] for js in states])


def _accumulate(row: dict[int, list[int]], t: int, w: tuple[int, int, int]) -> None:
    acc = row.setdefault(t, [0, 0, 0])
    for k in range(3):
        acc[k] += w[k]


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One player against one probe, as the program and the reference see it."""

    player: Player
    probe: ProbeSpec
    base: Player | None  # set when the probe is the Joss-Ann probe of `base`
    joint: Joint
    origin: str  # "bundled" or "generated"

    @property
    def name(self) -> str:
        return self.player.name

    def counts(self) -> dict:
        return {
            "player": self.player.name,
            "probe": self.probe.name,
            "origin": self.origin,
            "joint_states": self.joint.n_states,
            "irreducible": self.joint.irreducible(),
        }


def bundled_players(strategies_dir: Path) -> dict[str, Player]:
    return {
        path.stem: parse_player_text(path.read_text())
        for path in sorted(strategies_dir.glob("*.player"))
    }


def ja_case(player: Player, base: Player, origin: str) -> Case:
    probe = joss_ann_spec(base)
    return Case(player, probe, base, joint_chain(player, probe), origin)


def sized_case(
    rng: random.Random,
    name: str,
    joint_states: int,
    irreducible: bool,
    base: Player | None = None,
    probe_file: bool = False,
) -> Case:
    """Draw random players (and, unless `base` is given, random Joss-Ann base
    players or probe files) until the joint chain has exactly `joint_states`
    states and the requested irreducibility.  Sizing by joint-state count
    keeps the work of a case comparable from one seed to the next."""
    attempt = 0
    while True:
        attempt += 1
        player = random_player(rng, rng.randint(2, 4), name)
        if probe_file:
            probe = random_probe(rng, rng.randint(1, 3), f"NOISE_{name}")
            case_base = None
        else:
            case_base = base or random_player(rng, rng.randint(2, 3), f"B{name}")
            probe = joss_ann_spec(case_base)
        joint = joint_chain(player, probe)
        if joint.n_states == joint_states and joint.irreducible() == irreducible:
            return Case(player, probe, case_base, joint, "generated")
        if attempt > 200_000:
            raise RuntimeError(f"no case with {joint_states} joint states")


def write_case_files(case: Case, directory: Path) -> dict[str, Path]:
    """Write the files the program reads for this case."""
    paths = {"player": directory / f"{case.player.name}.player"}
    paths["player"].write_text(case.player.text())
    if case.base is not None:
        paths["base"] = directory / f"{case.player.name}.base.player"
        paths["base"].write_text(case.base.text())
    else:
        paths["probe"] = directory / f"{case.player.name}.probe"
        paths["probe"].write_text(case.probe.text())
    return paths


def interior_point(rng: random.Random, margin: float = 0.02) -> tuple[float, float]:
    """A random point of the open triangle at least `margin` from its edges."""
    while True:
        x = rng.uniform(margin, 1 - 2 * margin)
        y = rng.uniform(margin, 1 - 2 * margin)
        if x + y <= 1 - margin:
            return x, y

