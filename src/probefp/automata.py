"""Player strategies, parametrized probes, and the Joss-Ann construction.

Players are deterministic Mealy machines: each round they read the
opponent's previous move and emit a move while changing state.  Probes are
the probabilistic counterpart: each (state, input) pair maps to a
distribution over (output move, next state) outcomes whose weights are
polynomials in the probe parameters (x, y).  All randomness of the joint
game lives on the probe side.

File formats are line-oriented with ``#`` comments:

    player NAME                      probe NAME
    alphabet C D                     alphabet C D
    start STATE ACTION               init ACTION STATE : EXPR
    STATE IN -> NEXT OUT             STATE IN -> OUT NEXT : EXPR

Probe init/transition groups may span several lines, and the weights of a
repeated outcome are added.  Every (state, input) pair needs a group; the
init and each group name actions of the alphabet and states of the probe,
each outcome once, with weights that sum to the constant polynomial 1.
These rules are checked whenever a `Probe` is built, whether parsed from a
file, made by `joss_ann` or constructed in library code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    PayoffError,
    PlayerFormatError,
    ProbeFormatError,
    ProbeValidationError,
)
from .polyexpr import ExprSyntaxError, ParamExpr, PolyTable, expr_parse

# Nonnegativity of probe weights is sampled on this lattice over the
# parameter triangle; affine weights are additionally checked exactly at the
# three vertices.
VALIDATION_LATTICE_N = 20
WEIGHT_TOL = 1e-12

# A probe outcome: (output action, next state, polynomial weight).
Outcome = tuple[str, int, ParamExpr]


@dataclass
class PayoffMatrix:
    """Per-round payoff to the player, indexed by (player move, opponent move)."""

    entries: dict[tuple[str, str], Fraction]

    @classmethod
    def default_prisoners_dilemma(cls) -> "PayoffMatrix":
        return cls(
            {
                ("C", "C"): Fraction(3),
                ("C", "D"): Fraction(0),
                ("D", "C"): Fraction(5),
                ("D", "D"): Fraction(1),
            }
        )

    def value(self, player_action: str, opponent_action: str) -> Fraction:
        try:
            return self.entries[(player_action, opponent_action)]
        except KeyError:
            raise PayoffError(
                f"payoff undefined for ({player_action}, {opponent_action})"
            ) from None

    def validate_total(self, alphabet: tuple[str, ...]) -> None:
        for a in alphabet:
            for b in alphabet:
                if (a, b) not in self.entries:
                    raise PayoffError(f"payoff undefined for ({a}, {b})")

    def with_overrides(
        self, overrides: list[tuple[str, str, Fraction]]
    ) -> "PayoffMatrix":
        entries = dict(self.entries)
        for a, b, v in overrides:
            entries[(a, b)] = Fraction(v)
        return PayoffMatrix(entries)

    def scaled(self, factor) -> "PayoffMatrix":
        factor = Fraction(factor)
        return PayoffMatrix({k: v * factor for k, v in self.entries.items()})

    def bounds(self) -> tuple[Fraction, Fraction]:
        values = list(self.entries.values())
        return min(values), max(values)

    def render(self) -> str:
        """Entries as "a,b=v; ..." in sorted move order, for output metadata."""
        return "; ".join(f"{a},{b}={v}" for (a, b), v in sorted(self.entries.items()))


@dataclass
class PlayerMachine:
    """Deterministic finite-state transducer playing the row side of the game."""

    name: str
    alphabet: tuple[str, ...]
    state_names: tuple[str, ...]
    initial_state: int
    initial_action: str
    step: dict[tuple[int, str], tuple[int, str]]

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    def validate(self) -> None:
        if len(self.alphabet) < 2 or len(set(self.alphabet)) != len(self.alphabet):
            raise PlayerFormatError("alphabet must contain at least 2 distinct symbols")
        if self.initial_action not in self.alphabet:
            raise PlayerFormatError(
                f"start action {self.initial_action!r} not in alphabet"
            )
        for state in range(self.n_states):
            for action in self.alphabet:
                if (state, action) not in self.step:
                    raise PlayerFormatError(
                        f"missing transition for state {self.state_names[state]!r}"
                        f" on input {action!r}"
                    )
        if len(self.step) > self.n_states * len(self.alphabet):
            pairs = {(state, action) for state in range(self.n_states) for action in self.alphabet}
            extra = next(key for key in self.step if key not in pairs)
            raise PlayerFormatError(f"transition for {extra!r}, not a (state, input) pair")
        for (state, action), (nxt, out) in self.step.items():
            if out not in self.alphabet:
                raise PlayerFormatError(
                    f"output {out!r} of state {self.state_names[state]!r} not in alphabet"
                )
            if not (0 <= nxt < self.n_states):
                raise PlayerFormatError(f"transition to unknown state index {nxt}")
        unreachable = self._unreachable_states()
        if unreachable:
            names = ", ".join(self.state_names[s] for s in sorted(unreachable))
            raise PlayerFormatError(f"unreachable state(s): {names}")

    def _unreachable_states(self) -> set[int]:
        seen = {self.initial_state}
        frontier = [self.initial_state]
        while frontier:
            state = frontier.pop()
            for action in self.alphabet:
                nxt = self.step[(state, action)][0]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return set(range(self.n_states)) - seen


@dataclass
class Probe:
    """Finite-state transducer whose outcome weights are polynomials in (x, y).

    Building one checks its groups and compiles its weights: column 0 of
    `weights` is the zero polynomial, then each distinct nonzero weight, and
    `columns[key]` holds the column of each outcome of group `key`, "init"
    or (state, input).  Probes built on the same weight objects share one
    read-only table and its sums (`_shared_weights`)."""

    name: str
    alphabet: tuple[str, ...]
    state_names: tuple[str, ...]
    init: tuple[Outcome, ...]
    step: dict[tuple[int, str], tuple[Outcome, ...]]
    weights: PolyTable = field(init=False, repr=False, compare=False)
    columns: dict[object, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # ("init", init), then ((state, input), outcomes) by state and then by input
        groups = [("init", self.init)]
        for state in range(self.n_states):
            for action in self.alphabet:
                if (state, action) not in self.step:
                    raise ProbeFormatError(
                        f"no outcomes for state {self.state_names[state]!r} on input {action!r}"
                    )
                groups.append(((state, action), self.step[(state, action)]))
        if len(self.step) > len(groups) - 1:
            pairs = {key for key, _ in groups[1:]}
            extra = next(key for key in self.step if key not in pairs)
            raise ProbeFormatError(f"outcomes for {extra!r}, not a (state, input) pair")
        objects = {}  # id -> weight object, each distinct object once, in group order
        for _, outcomes in groups:
            for _, _, weight in outcomes:
                objects.setdefault(id(weight), weight)
        shared = _shared_weights(_Identity(tuple(objects.values())))
        column = dict(zip(objects, shared.columns))
        self.columns = {}
        for key, outcomes in groups:
            where = _group_name(self, key)
            for action, state, weight in outcomes:
                if action not in self.alphabet:
                    raise ProbeFormatError(
                        f"outcome action {action!r} of {where} is not in the alphabet"
                    )
                if state not in range(self.n_states):
                    raise ProbeFormatError(
                        f"outcome next state {state!r} of {where} is not a state of the probe"
                    )
            if len({outcome[:2] for outcome in outcomes}) < len(outcomes):
                raise ProbeFormatError(f"{where} repeats an (action, next state) outcome")
            columns = self.columns[key] = tuple(column[id(w)] for _, _, w in outcomes)
            if shared.residual(columns):
                raise ProbeValidationError(
                    f"weights for {where} do not sum to 1; "
                    f"residual: {shared.residual(columns).render()}"
                )
        self.weights = shared.table

    @property
    def n_states(self) -> int:
        return len(self.state_names)


def _group_name(probe: Probe, key) -> str:
    """How every message names the group `key` of `probe`."""
    return "init" if key == "init" else f"state {probe.state_names[key[0]]!r} input {key[1]!r}"


class _Identity:
    """Objects as a cache key that is equal only to the same objects; the
    key holds them, so none of their ids is reused while it is cached."""

    __slots__ = ("objects", "ids")

    def __init__(self, objects: tuple):
        self.objects = objects
        self.ids = tuple(map(id, objects))

    def __hash__(self) -> int:
        return hash(self.ids)

    def __eq__(self, other) -> bool:
        return self.ids == other.ids


class _SharedWeights:
    """The compiled table of a tuple of distinct weight objects, shared by
    every probe built on those objects (every Joss-Ann probe over an
    alphabet, say): column 0 of `table` is the zero polynomial, then each
    distinct weight value in order, `columns[k]` is object k's column, and
    `residual(columns)` is 1 minus the sum of those columns, computed once."""

    def __init__(self, objects: tuple[ParamExpr, ...]):
        column = {ParamExpr.zero(): 0}
        self.columns = tuple(column.setdefault(weight, len(column)) for weight in objects)
        self.table = PolyTable(list(column))
        self._residuals = {}

    def residual(self, columns: tuple[int, ...]) -> ParamExpr:
        if columns not in self._residuals:
            total = sum((self.table.exprs[c] for c in columns), ParamExpr.zero())
            self._residuals[columns] = ParamExpr.one() - total
        return self._residuals[columns]


@functools.lru_cache(maxsize=32)
def _shared_weights(objects: _Identity) -> _SharedWeights:
    return _SharedWeights(objects.objects)


@dataclass
class ProbeValidationReport:
    """Outcome of the sampled and reachability checks on a probe; `min_weight`
    is the smallest weight value seen anywhere on the validation lattice."""

    min_weight: float = float("inf")
    min_weight_point: tuple[float, float] = (0.0, 0.0)
    negativity_violations: list = field(default_factory=list)
    vertex_violations: list = field(default_factory=list)
    unreachable_states: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.negativity_violations or self.vertex_violations or self.unreachable_states)


def _lattice(n: int) -> np.ndarray:
    """Nodes (i, j) with i + j <= n, in lexicographic order, as rows."""
    return np.argwhere(np.add.outer(np.arange(n + 1), np.arange(n + 1)) <= n)


# The validation lattice's points, as the report gives them, and their
# coordinates as arrays; built once.
_LATTICE_POINTS = tuple(
    (i / VALIDATION_LATTICE_N, j / VALIDATION_LATTICE_N)
    for i, j in _lattice(VALIDATION_LATTICE_N).tolist()
)
_LATTICE_XS, _LATTICE_YS = np.array(_LATTICE_POINTS).T
_VERTICES = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def validate_probe(probe: Probe) -> ProbeValidationReport:
    """The checks that construction leaves out, reported, never raised: the
    lattice sample of nonnegativity, affine weights at the vertices, and
    reachability.  Groups and sums are checked whenever a `Probe` is built."""
    report = ProbeValidationReport()
    keys = [key for key, group in probe.columns.items() for _ in group]
    columns = [column for group in probe.columns.values() for column in group]
    # values[e, p] is outcome e's weight at lattice point p; row-major order
    # is the order of the outcomes, then of the points, as the report lists them.
    values = probe.weights.evaluate(_LATTICE_XS, _LATTICE_YS).T[columns]
    lowest = int(values.argmin())
    report.min_weight = float(values.flat[lowest])
    report.min_weight_point = _LATTICE_POINTS[lowest % len(_LATTICE_POINTS)]
    outside = ~((-WEIGHT_TOL <= values) & (values <= 1 + WEIGHT_TOL))
    for e, p in zip(*np.nonzero(outside)):
        report.negativity_violations.append((keys[e], _LATTICE_POINTS[p], float(values[e, p])))
    # exact values of each affine weight at the vertices, where the float
    # lattice can round a tiny negative value to 0.0
    vertex_values = [
        _vertex_values(weight) if weight.is_affine() else [] for weight in probe.weights.exprs
    ]
    for key, column in zip(keys, columns):
        for vertex, exact in zip(_VERTICES, vertex_values[column]):
            if exact < 0:
                report.vertex_violations.append((key, vertex, exact))

    # Reachability under generic interior parameters: any outcome with a
    # nonzero weight polynomial counts as a support edge.
    reached = {state for _, state, w in probe.init if not w.is_zero()}
    frontier = list(reached)
    while frontier:
        state = frontier.pop()
        for action in probe.alphabet:
            for _, nxt, weight in probe.step[(state, action)]:
                if not weight.is_zero() and nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
    report.unreachable_states = sorted(set(range(probe.n_states)) - reached)
    return report


def _vertex_values(weight: ParamExpr) -> list[Fraction]:
    """An affine weight's exact values at (0, 0), (1, 0) and (0, 1), read
    from its coefficients."""
    c00, c10, c01 = (weight._terms.get(key, Fraction(0)) for key in ((0, 0), (1, 0), (0, 1)))
    return [c00, c00 + c10, c00 + c01]


def _raise_on_invalid(probe: Probe, report: ProbeValidationReport) -> None:
    if report.negativity_violations:
        key, point, value = report.negativity_violations[0]
        raise ProbeValidationError(
            f"weight for {_group_name(probe, key)} evaluates to {value} at lattice point {point}"
        )
    if report.vertex_violations:
        key, point, value = report.vertex_violations[0]
        raise ProbeValidationError(
            f"affine weight for {_group_name(probe, key)} is {value} at vertex "
            f"({float(point[0])}, {float(point[1])})"
        )
    if report.unreachable_states:
        names = ", ".join(probe.state_names[s] for s in report.unreachable_states)
        raise ProbeFormatError(f"unreachable state(s): {names}")


# ---------------------------------------------------------------------------
# File parsing
# ---------------------------------------------------------------------------


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_header(text: str, kind: str, error):
    """The name and alphabet of a `kind` file ("player" or "probe"), the
    significant lines after them and the alphabet line's number; a fault
    raises `error` naming its line."""
    lines = list(_significant_lines(text))
    if not lines:
        raise error(f"empty {kind} file")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 2 or tokens[0] != kind:
        raise error(f"expected '{kind} NAME' header", lineno)
    name = tokens[1]
    if len(lines) < 2:
        raise error("missing alphabet line", lineno)
    lineno, line = lines[1]
    tokens = line.split()
    if tokens[0] != "alphabet":
        raise error("expected 'alphabet ...' line", lineno)
    if len(tokens) < 3:
        raise error("alphabet needs at least 2 symbols", lineno)
    alphabet = tuple(tokens[1:])
    if len(set(alphabet)) != len(alphabet):
        raise error("alphabet symbols must be distinct", lineno)
    return name, alphabet, lines[2:], lineno


class _StateIndexer:
    """Assigns state indices by first appearance in the file."""

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}

    def get(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
        return self.index[name]


def parse_player(text: str) -> PlayerMachine:
    """Parse and validate a player file."""
    name, alphabet, lines, lineno = _read_header(text, "player", PlayerFormatError)
    if not lines:
        raise PlayerFormatError("missing start line", lineno)
    lineno, line = lines[0]
    tokens = line.split()
    if len(tokens) != 3 or tokens[0] != "start":
        raise PlayerFormatError("expected 'start STATE ACTION' line", lineno)
    indexer = _StateIndexer()
    initial_state = indexer.get(tokens[1])
    initial_action = tokens[2]
    if initial_action not in alphabet:
        raise PlayerFormatError(f"start action {initial_action!r} not in alphabet", lineno)

    step: dict[tuple[int, str], tuple[int, str]] = {}
    for lineno, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 5 or tokens[2] != "->":
            raise PlayerFormatError("expected 'STATE IN -> NEXT OUT' transition", lineno)
        state_tok, in_action, _, next_tok, out_action = tokens
        if in_action not in alphabet:
            raise PlayerFormatError(f"input {in_action!r} not in alphabet", lineno)
        if out_action not in alphabet:
            raise PlayerFormatError(f"output {out_action!r} not in alphabet", lineno)
        state = indexer.get(state_tok)
        nxt = indexer.get(next_tok)
        key = (state, in_action)
        if key in step:
            raise PlayerFormatError(
                f"duplicate rule for state {state_tok!r} input {in_action!r}", lineno
            )
        step[key] = (nxt, out_action)

    machine = PlayerMachine(
        name=name,
        alphabet=alphabet,
        state_names=tuple(indexer.names),
        initial_state=initial_state,
        initial_action=initial_action,
        step=step,
    )
    machine.validate()
    return machine


def _canonical_outcomes(
    outcomes: list[Outcome], alphabet: tuple[str, ...]
) -> tuple[Outcome, ...]:
    """Merge duplicate (action, state) outcomes and sort them canonically."""
    merged: dict[tuple[str, int], ParamExpr] = {}
    for action, state, weight in outcomes:
        key = (action, state)
        merged[key] = merged[key] + weight if key in merged else weight
    order = {a: k for k, a in enumerate(alphabet)}
    canon = sorted(merged.items(), key=lambda kv: (order[kv[0][0]], kv[0][1]))
    return tuple(
        (action, state, weight) for (action, state), weight in canon if not weight.is_zero()
    )


def parse_probe(text: str) -> Probe:
    """Parse a probe file and run the full validation suite, raising on failure."""
    name, alphabet, lines, _ = _read_header(text, "probe", ProbeFormatError)
    indexer = _StateIndexer()
    init_raw: list[Outcome] = []
    step_raw: dict[tuple[int, str], list[Outcome]] = {}

    parsed: dict[str, ParamExpr] = {}  # by raw text, so that a repeated weight is one object

    def parse_weight(expr_text: str, lineno: int) -> ParamExpr:
        if expr_text not in parsed:
            try:
                parsed[expr_text] = expr_parse(expr_text)
            except ExprSyntaxError as exc:
                raise ProbeFormatError(f"bad weight expression: {exc}", lineno) from exc
        return parsed[expr_text]

    for lineno, line in lines:
        head, sep, expr_text = line.partition(":")
        if not sep:
            raise ProbeFormatError("expected ': EXPR' weight suffix", lineno)
        tokens = head.split()
        if tokens and tokens[0] == "init":
            if len(tokens) != 3:
                raise ProbeFormatError("expected 'init ACTION STATE : EXPR'", lineno)
            action, state_tok = tokens[1], tokens[2]
            if action not in alphabet:
                raise ProbeFormatError(f"action {action!r} not in alphabet", lineno)
            init_raw.append((action, indexer.get(state_tok), parse_weight(expr_text, lineno)))
        else:
            if len(tokens) != 5 or tokens[2] != "->":
                raise ProbeFormatError(
                    "expected 'STATE IN -> OUT NEXT : EXPR' transition", lineno
                )
            state_tok, in_action, _, out_action, next_tok = tokens
            if in_action not in alphabet:
                raise ProbeFormatError(f"input {in_action!r} not in alphabet", lineno)
            if out_action not in alphabet:
                raise ProbeFormatError(f"output {out_action!r} not in alphabet", lineno)
            key = (indexer.get(state_tok), in_action)
            step_raw.setdefault(key, []).append(
                (out_action, indexer.get(next_tok), parse_weight(expr_text, lineno))
            )

    if not init_raw:
        raise ProbeFormatError("probe has no init lines")

    probe = Probe(
        name=name,
        alphabet=alphabet,
        state_names=tuple(indexer.names),
        init=_canonical_outcomes(init_raw, alphabet),
        step={k: _canonical_outcomes(v, alphabet) for k, v in step_raw.items()},
    )
    _raise_on_invalid(probe, validate_probe(probe))
    return probe


# ---------------------------------------------------------------------------
# Joss-Ann construction
# ---------------------------------------------------------------------------


@functools.cache
def _joss_ann_outcomes(alphabet: tuple[str, ...]) -> tuple[tuple[Outcome, ...], ...]:
    """The merged canonical outcomes of a Joss-Ann group, at state 0, for
    each base move in `alphabet`'s order: C with weight 1 - y and D with
    weight y after C; C with weight x and D with weight 1 - x after D.

    They depend only on the base move, and one state is shared by every
    outcome, so the canonical order is the actions' order.  Built once per
    alphabet; every probe shares the tuples and their weight objects."""
    x = ParamExpr.var_x()
    y = ParamExpr.var_y()
    rest = ParamExpr.one() - x - y
    return tuple(
        _canonical_outcomes([("C", 0, x), ("D", 0, y), (move, 0, rest)], alphabet)
        for move in alphabet
    )


def joss_ann(base: PlayerMachine) -> Probe:
    """Two-parameter probe built on a base strategy: with probability x play
    C, with probability y play D, otherwise play the base strategy's move.

    The probe keeps the base machine's state set; states follow the base
    strategy's deterministic updates regardless of which move was forced.
    """
    if set(base.alphabet) != {"C", "D"}:
        raise ProbeValidationError(
            f"joss_ann requires the binary alphabet C/D, got {base.alphabet}"
        )
    weights = dict(zip(base.alphabet, _joss_ann_outcomes(base.alphabet)))

    def spread(move: str, state: int) -> tuple[Outcome, ...]:
        return tuple((action, state, weight) for action, _, weight in weights[move])

    step = {key: spread(out, nxt) for key, (nxt, out) in base.step.items()}
    init = spread(base.initial_action, base.initial_state)
    return Probe(
        name=f"joss_ann({base.name})",
        alphabet=base.alphabet,
        state_names=base.state_names,
        init=init,
        step=step,
    )
