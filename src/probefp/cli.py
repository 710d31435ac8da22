"""Command-line front end.

Commands: validate, fingerprint, symbolic, distance, simulate.  Outputs are
byte-reproducible: no timestamps, fixed float formatting, and every written
file embeds the SHA-256 digests of its inputs.

Exit codes: 0 success, 2 invalid input, 3 numeric failure, 4 reducible chain
(symbolic mode), 5 expression swell, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .automata import (
    PayoffMatrix,
    PlayerMachine,
    _significant_lines,
    joss_ann,
    parse_player,
    parse_probe,
)
from .chain import compose
from .errors import (
    ExpressionSwellError,
    InputError,
    NumericError,
    ProbeFpError,
    ReducibleChainError,
)
from .fingerprint import (
    CESARO,
    INTERIOR_OFFSET,
    FingerprintGrid,
    PointwiseFingerprint,
    fingerprint_grid,
    pointwise_fingerprint,
    symbolic_fingerprint,
    value_at,
)
from .metrics import distance_matrix, make_grid_evaluator
from .simulate import RNG_ID, estimate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_REDUCIBLE = 4
EXIT_SWELL = 5
EXIT_USAGE = 64

_BOUNDARY_FLAGS = {"cesaro": CESARO, "offset": INTERIOR_OFFSET}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code from our table instead of 2."""

    def error(self, message):
        raise UsageError(message)


class _Setting(NamedTuple):
    """A run setting.  A config-file line `KEY VALUE` sets it, and so does
    the flag -n (key n) or --KEY of each command in `commands`."""

    kind: type
    default: object
    allowed: int | tuple[str, ...]  # a lower bound, or the choices
    commands: tuple[str, ...]
    help: str


_SETTINGS = {
    "n": _Setting(int, 20, 1, ("fingerprint",), "grid resolution"),
    "boundary": _Setting(
        str, "cesaro", tuple(_BOUNDARY_FLAGS), ("fingerprint", "distance", "simulate"),
        "boundary convention",
    ),
    "quad-n": _Setting(int, 200, 1, ("distance",), "quadrature resolution"),
    "format": _Setting(str, "csv", ("csv", "json"), ("fingerprint", "distance"), "output format"),
    "seed": _Setting(int, 0, 0, ("simulate",), "seed of the first replicate"),
    "rounds": _Setting(int, 100_000, 1, ("simulate",), "rounds per replicate"),
    "burn-in": _Setting(
        int, None, 0, ("simulate",), "rounds left out of each mean (default rounds // 10)"
    ),
    "replicates": _Setting(int, 16, 2, ("simulate",), "independent replicates"),
}


def _flag(key: str) -> str:
    return "-n" if key == "n" else f"--{key}"


def _check_range(key: str, value, error: type[Exception], where: str):
    """value, or `error` naming where it came from if `key` does not take it."""
    allowed = _SETTINGS[key].allowed
    if isinstance(allowed, tuple):
        takes, wording = value in allowed, " or ".join(allowed)
    else:
        takes, wording = value >= allowed, f">= {allowed}"
    if not takes:
        raise error(f"{where}: {key} must be {wording}, not {value!r}")
    return value


def _convert(kind, text: str, error: type[Exception], where: str):
    """kind(text), or `error` naming where the text came from."""
    try:
        return kind(text)
    except (ValueError, ZeroDivisionError):
        raise error(f"{where}: {text!r} is not a valid {kind.__name__}") from None


def _read_config_file(path: str) -> dict:
    """Payoff overrides under "payoff"; every other key maps to its value
    and the config line it came from."""
    values: dict = {"payoff": []}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from exc
    for lineno, line in _significant_lines(text):
        tokens = line.split()
        key = tokens[0]
        where = f"config line {lineno}"
        if key == "payoff":
            if len(tokens) != 4:
                raise InputError(f"{where}: payoff needs 'payoff A B VALUE'")
            value = _convert(Fraction, tokens[3], InputError, where)
            values["payoff"].append((tokens[1], tokens[2], value, InputError, where))
        elif key in _SETTINGS:
            if len(tokens) != 2:
                raise InputError(f"{where}: expected '{key} VALUE'")
            value = _convert(_SETTINGS[key].kind, tokens[1], InputError, where)
            values[key] = (_check_range(key, value, InputError, where), where)
        else:
            raise InputError(f"{where}: unknown key {key!r}")
    return values


def _resolve_config(args) -> dict:
    """Each setting's value by key, with the boundary flag word mapped to its
    mode, and the payoff overrides under "payoff" as (A, B, VALUE, error,
    where).  Precedence: command-line flag > config file > the default."""
    file_values = _read_config_file(args.config) if args.config else {"payoff": []}
    settings = {}
    flagged = set()  # keys whose value came from the command line
    for key, setting in _SETTINGS.items():
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            settings[key] = _check_range(key, value, UsageError, _flag(key))
            flagged.add(key)
        elif key in file_values:
            settings[key] = file_values[key][0]
        else:
            settings[key] = setting.default

    burn_in, rounds = settings["burn-in"], settings["rounds"]
    if burn_in is not None and burn_in >= rounds:
        if flagged & {"burn-in", "rounds"}:
            raise UsageError("need 0 <= burn-in < rounds")
        where = file_values["burn-in"][1]
        raise InputError(f"{where}: burn-in must be below rounds ({rounds}), not {burn_in!r}")

    settings["payoff"] = file_values["payoff"] + [
        (a, b, _convert(Fraction, v, UsageError, "--payoff"), UsageError, "--payoff")
        for a, b, v in args.payoff or []
    ]
    settings["boundary"] = _BOUNDARY_FLAGS[settings["boundary"]]
    return settings


def _payoff_matrix(settings: dict) -> PayoffMatrix:
    overrides = [(a, b, value) for a, b, value, _, _ in settings["payoff"]]
    return PayoffMatrix.default_prisoners_dilemma().with_overrides(overrides)


def _check_payoff_moves(settings: dict, player: PlayerMachine) -> None:
    """Refuse an override that names a move outside the player's alphabet,
    as the error of its flag or config line."""
    for a, b, _, error, where in settings["payoff"]:
        if a not in player.alphabet or b not in player.alphabet:
            raise error(
                f"{where}: payoff must be for moves of {player.name} "
                f"({' '.join(player.alphabet)}), not {a} {b}"
            )


def _read_file(path: str) -> tuple[str, str]:
    """File text plus its SHA-256 digest."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _load_player(path: str):
    text, digest = _read_file(path)
    return parse_player(text), digest


def _load_game(args):
    """Settings, payoff matrix, player and probe of a command that plays one
    player against one probe, and the metadata every such output carries."""
    settings = _resolve_config(args)
    payoff = _payoff_matrix(settings)
    player, player_digest = _load_player(args.player)
    _check_payoff_moves(settings, player)
    if (args.probe is None) == (args.joss_ann is None):
        raise UsageError("specify exactly one of PROBE or --joss-ann BASE")
    if args.probe is not None:
        probe, digest = _load_probe(args.probe, joss_ann_base=False)
        probe_meta = {"probe_sha256": digest}
    else:
        probe, digest = _load_probe(args.joss_ann, joss_ann_base=True)
        probe_meta = {"probe_constructed": "joss_ann", "probe_base_sha256": digest}
    meta = {
        **_base_meta(payoff),
        "player": player.name,
        "player_sha256": player_digest,
        **probe_meta,
        "probe": probe.name,
    }
    return settings, payoff, player, probe, meta


def _load_probe(path: str, joss_ann_base: bool):
    """The probe in the file at `path`, or with `joss_ann_base` the Joss-Ann
    probe built on the player there, plus the file's SHA-256 digest."""
    if joss_ann_base:
        base, digest = _load_player(path)
        return joss_ann(base), digest
    text, digest = _read_file(path)
    return parse_probe(text), digest


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


def _base_meta(payoff: PayoffMatrix | None) -> dict:
    """Tool and version, plus the payoff matrix where the output used one."""
    meta = {"tool": "probefp", "version": __version__}
    if payoff is not None:
        meta["payoff"] = payoff.render()
    return meta


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    failures = 0
    for path in args.files:
        try:
            text, _ = _read_file(path)
            kind = next((line.split()[0] for _, line in _significant_lines(text)), "")
            if kind == "player":
                machine = parse_player(text)
                print(f"{path}: OK player {machine.name} ({machine.n_states} states)")
            elif kind == "probe":
                probe = parse_probe(text)
                print(f"{path}: OK probe {probe.name} ({probe.n_states} states)")
            else:
                raise InputError("first line must start with 'player' or 'probe'")
        except (ProbeFpError, OSError) as exc:
            print(f"{path}: INVALID: {exc}")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_INPUT


def _cmd_fingerprint(args) -> int:
    settings, payoff, player, probe, meta = _load_game(args)
    n, boundary = settings["n"], settings["boundary"]
    grid = fingerprint_grid(player, probe, payoff, n, boundary)
    meta = {**meta, "n": n, "boundary_mode": boundary}
    render = grid.to_json if settings["format"] == "json" else grid.to_csv
    _write_output(render(meta), args.output)
    return EXIT_OK


def _cmd_symbolic(args) -> int:
    _, payoff, player, probe, meta = _load_game(args)
    result = symbolic_fingerprint(player, probe, payoff)
    lines = [f"# {key}: {meta[key]}" for key in sorted(meta)]
    lines += [
        f"num: {result.fn.num.render()}",
        f"den: {result.fn.den.render()}",
        "agreement: exact, checked modulo a prime near 2^61; the form holds off the zeros "
        "of den and of the chain's nonzero weights",
    ]
    _write_output("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _fingerprint_source(spec: str, settings: dict, payoff):
    """A distance source: a grid file, or 'PLAYER:PROBE' / 'PLAYER:ja[:BASE]'
    pairs evaluated pointwise on the fly.  Returns the name, the evaluable
    and the SHA-256 digests of the files read, in the order of the spec."""
    path = Path(spec)
    if path.suffix in (".json", ".csv") or (path.exists() and ":" not in spec):
        text, digest = _read_file(spec)
        grid = (
            FingerprintGrid.from_json(text)
            if text.lstrip().startswith("{")
            else FingerprintGrid.from_csv(text)
        )
        name = grid.meta.get("player", path.stem)
        return name, make_grid_evaluator(grid), [digest]
    player_path, sep, probe_spec = spec.partition(":")
    if not sep:
        raise UsageError(
            f"source {spec!r} is neither a grid file nor a PLAYER:PROBE pair"
        )
    player, digest = _load_player(player_path)
    _check_payoff_moves(settings, player)
    digests = [digest]
    if probe_spec == "ja":
        probe = joss_ann(player)
    else:
        on_base = probe_spec.startswith("ja:")
        probe, digest = _load_probe(probe_spec[3:] if on_base else probe_spec, on_base)
        digests.append(digest)
    fingerprint = pointwise_fingerprint(player, probe, payoff, settings["boundary"])
    return player.name, fingerprint, digests


def _cmd_distance(args) -> int:
    settings = _resolve_config(args)
    payoff = _payoff_matrix(settings)
    if len(args.sources) < 2:
        raise UsageError("distance needs at least two sources")
    corpus = []
    digests = []
    for spec in args.sources:
        name, evaluable, spec_digests = _fingerprint_source(spec, settings, payoff)
        corpus.append((name, evaluable))
        digests.extend(spec_digests)
    names = [name for name, _ in corpus]
    if len(set(names)) != len(names):
        raise UsageError(f"duplicate fingerprint names: {sorted(names)}")
    # grid files hold finished values, so only a pointwise source uses the payoff
    pointwise = any(isinstance(evaluable, PointwiseFingerprint) for _, evaluable in corpus)
    if settings["payoff"] and not pointwise:
        _, _, _, error, where = settings["payoff"][0]
        raise error(
            f"{where}: payoff must be set by the runs that wrote the grid files, "
            "since no source here is a PLAYER:PROBE pair"
        )

    matrix = distance_matrix(corpus, settings["quad-n"])
    meta = {
        **_base_meta(payoff if pointwise else None),
        "quadrature_n": settings["quad-n"],
        "input_sha256": ";".join(digests),
    }
    if settings["format"] == "json":
        doc = {
            "meta": {**matrix.meta, **meta},
            "names": list(matrix.names),
            "distances": [[float(v) for v in row] for row in matrix.d],
        }
        _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    else:
        _write_output(matrix.to_csv(meta), args.output)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    settings, payoff, player, probe, meta = _load_game(args)
    x, y = args.x, args.y
    # "not inside" rather than "outside", so that NaN is refused too
    if not (x >= 0 and y >= 0 and x + y <= 1):
        raise UsageError(f"point ({x}, {y}) is outside the parameter triangle")

    chain = compose(player, probe, payoff)
    result = estimate(
        player,
        probe,
        payoff,
        x,
        y,
        rounds=settings["rounds"],
        burn_in=settings["burn-in"],
        replicates=settings["replicates"],
        seed=settings["seed"],
        chain=chain,
    )
    exact = value_at(chain, x, y, settings["boundary"])
    if result.stderr > 0:
        z = (result.mean - exact) / result.stderr
    else:
        z = 0.0 if result.mean == exact else float("inf")
    doc = {
        "meta": {**meta, "rng": RNG_ID},
        "point": {"x": x, "y": y},
        "estimate": {
            "mean": result.mean,
            "stderr": result.stderr,
            "rounds": result.rounds,
            "burn_in": result.burn_in,
            "replicates": result.replicates,
            "seed": result.seed,
        },
        "exact_fingerprint": exact,
        "z_score": z,
    }
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags every computing command reads, plus the flag of each
    setting that `command` reads."""
    parser.add_argument(
        "--payoff",
        nargs=3,
        metavar=("A", "B", "VALUE"),
        action="append",
        help="override one payoff entry (repeatable)",
    )
    parser.add_argument("--config", help="config file (flags take precedence)")
    parser.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    for key, setting in _SETTINGS.items():
        if command in setting.commands:
            choices = setting.allowed if isinstance(setting.allowed, tuple) else None
            parser.add_argument(
                _flag(key), type=setting.kind, choices=choices, default=None, help=setting.help
            )


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no
    state in it."""
    parser = _Parser(prog="probefp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"probefp {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("validate", help="check player/probe files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=_cmd_validate)

    p = subparsers.add_parser("fingerprint", help="sample a fingerprint grid")
    p.add_argument("player")
    p.add_argument("probe", nargs="?", default=None)
    p.add_argument("--joss-ann", metavar="BASE", help="build the probe from a base player")
    _add_common(p, "fingerprint")
    p.set_defaults(func=_cmd_fingerprint)

    p = subparsers.add_parser("symbolic", help="closed-form fingerprint")
    p.add_argument("player")
    p.add_argument("probe", nargs="?", default=None)
    p.add_argument("--joss-ann", metavar="BASE")
    _add_common(p, "symbolic")
    p.set_defaults(func=_cmd_symbolic)

    p = subparsers.add_parser("distance", help="pairwise fingerprint distances")
    p.add_argument(
        "sources",
        nargs="*",
        help="grid files or PLAYER:PROBE / PLAYER:ja / PLAYER:ja:BASE pairs",
    )
    _add_common(p, "distance")
    p.set_defaults(func=_cmd_distance)

    p = subparsers.add_parser("simulate", help="Monte Carlo estimate at a point")
    p.add_argument("player")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("probe", nargs="?", default=None)
    p.add_argument("--joss-ann", metavar="BASE")
    _add_common(p, "simulate")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ExpressionSwellError as exc:
        print(f"expression swell: {exc}", file=sys.stderr)
        return EXIT_SWELL
    except ReducibleChainError as exc:
        print(f"reducible chain: {exc}", file=sys.stderr)
        return EXIT_REDUCIBLE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
