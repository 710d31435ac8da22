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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .automata import PayoffMatrix, joss_ann, parse_player, parse_probe
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


@dataclass
class RunConfig:
    payoff_overrides: list[tuple[str, str, Fraction]]
    grid_n: int = 20
    boundary_mode: str = CESARO
    quad_n: int = 200
    fmt: str = "csv"
    out: str | None = None
    seed: int = 0
    rounds: int = 100_000
    burn_in: int | None = None
    replicates: int = 16


# Config-file key: its type and the RunConfig field it sets.  The command-line
# flag of a key has the same name, read from args with "_" for "-".
_CONFIG_KEYS = {
    "n": (int, "grid_n"),
    "boundary": (str, "boundary_mode"),
    "quad-n": (int, "quad_n"),
    "format": (str, "fmt"),
    "seed": (int, "seed"),
    "rounds": (int, "rounds"),
    "burn-in": (int, "burn_in"),
    "replicates": (int, "replicates"),
}


def _at_least(low: int):
    return lambda value: value >= low


# The values of a key that takes fewer than all of its type: a test and its
# wording.
_KEY_RANGES = {
    "n": (_at_least(1), ">= 1"),
    "boundary": (_BOUNDARY_FLAGS.__contains__, "cesaro or offset"),
    "quad-n": (_at_least(1), ">= 1"),
    "format": (("csv", "json").__contains__, "csv or json"),
    "seed": (_at_least(0), ">= 0"),
    "rounds": (_at_least(1), ">= 1"),
    "burn-in": (_at_least(0), ">= 0"),
    "replicates": (_at_least(2), ">= 2"),
}


def _check_range(key: str, value, error: type[Exception], where: str):
    """value, or `error` naming where it came from if `key` does not take it."""
    if key in _KEY_RANGES:
        takes, wording = _KEY_RANGES[key]
        if not takes(value):
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "payoff":
            if len(tokens) != 4:
                raise InputError(f"config line {lineno}: payoff needs 'payoff A B VALUE'")
            value = _convert(Fraction, tokens[3], InputError, f"config line {lineno}")
            values["payoff"].append((tokens[1], tokens[2], value))
        elif key in _CONFIG_KEYS:
            if len(tokens) != 2:
                raise InputError(f"config line {lineno}: expected '{key} VALUE'")
            where = f"config line {lineno}"
            value = _convert(_CONFIG_KEYS[key][0], tokens[1], InputError, where)
            values[key] = (_check_range(key, value, InputError, where), where)
        else:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
    return values


def _resolve_config(args) -> RunConfig:
    """Precedence: command-line flag > config file > RunConfig's default."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    chosen = {}
    flagged = set()  # keys whose value came from the command line
    for key, (_, field) in _CONFIG_KEYS.items():
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            chosen[field] = _check_range(key, value, UsageError, "-n" if key == "n" else f"--{key}")
            flagged.add(key)
        elif key in file_values:
            chosen[field] = file_values[key][0]

    burn_in = chosen.get("burn_in")
    rounds = chosen.get("rounds", RunConfig.rounds)
    if burn_in is not None and burn_in >= rounds:
        if flagged & {"burn-in", "rounds"}:
            raise UsageError("need 0 <= burn-in < rounds")
        where = file_values["burn-in"][1]
        raise InputError(f"{where}: burn-in must be below rounds ({rounds}), not {burn_in!r}")

    overrides = list(file_values.get("payoff", []))
    for a, b, v in getattr(args, "payoff", None) or []:
        overrides.append((a, b, _convert(Fraction, v, UsageError, "--payoff")))

    if "boundary_mode" in chosen:
        chosen["boundary_mode"] = _BOUNDARY_FLAGS[chosen["boundary_mode"]]
    return RunConfig(payoff_overrides=overrides, out=getattr(args, "output", None), **chosen)


def _payoff_matrix(config: RunConfig) -> PayoffMatrix:
    return PayoffMatrix.default_prisoners_dilemma().with_overrides(
        config.payoff_overrides
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
    """Config, payoff matrix, player and probe of a command that plays one
    player against one probe, and the metadata every such output carries."""
    config = _resolve_config(args)
    payoff = _payoff_matrix(config)
    player, player_digest = _load_player(args.player)
    probe, probe_meta = _load_probe_spec(args.probe, args.joss_ann)
    meta = {
        **_base_meta(payoff),
        "player": player.name,
        "player_sha256": player_digest,
        **probe_meta,
    }
    return config, payoff, player, probe, meta


def _load_probe_spec(probe_path: str | None, joss_ann_path: str | None):
    """Probe from an explicit file or constructed from a base player file."""
    if (probe_path is None) == (joss_ann_path is None):
        raise UsageError("specify exactly one of PROBE or --joss-ann BASE")
    meta: dict = {}
    if probe_path is not None:
        text, digest = _read_file(probe_path)
        probe = parse_probe(text)
        meta["probe_sha256"] = digest
    else:
        base, digest = _load_player(joss_ann_path)
        probe = joss_ann(base)
        meta["probe_constructed"] = "joss_ann"
        meta["probe_base_sha256"] = digest
    meta["probe"] = probe.name
    return probe, meta


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)


def _base_meta(payoff: PayoffMatrix) -> dict:
    return {"tool": "probefp", "version": __version__, "payoff": payoff.render()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    failures = 0
    for path in args.files:
        try:
            text, _ = _read_file(path)
            header = next(
                (
                    line.split("#", 1)[0].strip()
                    for line in text.splitlines()
                    if line.split("#", 1)[0].strip()
                ),
                "",
            )
            kind = header.split()[0] if header else ""
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
    config, payoff, player, probe, meta = _load_game(args)
    grid = fingerprint_grid(player, probe, payoff, config.grid_n, config.boundary_mode)
    meta = {**meta, "n": config.grid_n, "boundary_mode": config.boundary_mode}
    if config.fmt == "json":
        _write_output(grid.to_json(meta), config.out)
    else:
        _write_output(grid.to_csv(meta), config.out)
    return EXIT_OK


def _cmd_symbolic(args) -> int:
    config, payoff, player, probe, meta = _load_game(args)
    result = symbolic_fingerprint(player, probe, payoff)
    lines = [f"# {key}: {meta[key]}" for key in sorted(meta)]
    lines += [
        f"num: {result.fn.num.render()}",
        f"den: {result.fn.den.render()}",
        "agreement: max |closed form - numeric| = "
        f"{result.agreement_max_error:.3e} over interior lattice nodes",
    ]
    _write_output("\n".join(lines) + "\n", config.out)
    return EXIT_OK


def _fingerprint_source(spec: str, payoff, boundary_mode):
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
    digests = [digest]
    if probe_spec == "ja":
        probe = joss_ann(player)
    elif probe_spec.startswith("ja:"):
        base, digest = _load_player(probe_spec[3:])
        probe = joss_ann(base)
        digests.append(digest)
    else:
        text, digest = _read_file(probe_spec)
        probe = parse_probe(text)
        digests.append(digest)
    fingerprint = pointwise_fingerprint(player, probe, payoff, boundary_mode)
    return player.name, fingerprint, digests


def _cmd_distance(args) -> int:
    config = _resolve_config(args)
    payoff = _payoff_matrix(config)
    if len(args.sources) < 2:
        raise UsageError("distance needs at least two sources")
    corpus = []
    digests = []
    for spec in args.sources:
        name, evaluable, spec_digests = _fingerprint_source(
            spec, payoff, config.boundary_mode
        )
        corpus.append((name, evaluable))
        digests.extend(spec_digests)
    names = [name for name, _ in corpus]
    if len(set(names)) != len(names):
        raise UsageError(f"duplicate fingerprint names: {sorted(names)}")

    matrix = distance_matrix(corpus, config.quad_n)
    meta = {
        **_base_meta(payoff),
        "quadrature_n": config.quad_n,
        "input_sha256": ";".join(digests),
    }
    if config.fmt == "json":
        doc = {
            "meta": {**matrix.meta, **meta},
            "names": list(matrix.names),
            "distances": [[float(v) for v in row] for row in matrix.d],
        }
        _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", config.out)
    else:
        _write_output(matrix.to_csv(meta), config.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config, payoff, player, probe, meta = _load_game(args)
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
        rounds=config.rounds,
        burn_in=config.burn_in,
        replicates=config.replicates,
        seed=config.seed,
        chain=chain,
    )
    exact = value_at(chain, x, y, config.boundary_mode)
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
    _write_output(json.dumps(doc, indent=2, sort_keys=True) + "\n", config.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Flags that only some commands read, by config-file key.
_OPTIONAL_FLAGS = {
    "n": (("-n",), {"type": int, "help": "grid resolution"}),
    "boundary": (
        ("--boundary",),
        {"choices": ("cesaro", "offset"), "help": "boundary convention"},
    ),
    "quad-n": (("--quad-n",), {"type": int, "help": "quadrature resolution"}),
    "format": (("--format",), {"choices": ("csv", "json")}),
    "seed": (("--seed",), {"type": int}),
}


def _add_common(parser: argparse.ArgumentParser, *optional: str) -> None:
    """The flags every computing command reads, plus the named optional ones."""
    parser.add_argument(
        "--payoff",
        nargs=3,
        metavar=("A", "B", "VALUE"),
        action="append",
        help="override one payoff entry (repeatable)",
    )
    parser.add_argument("--config", help="config file (flags take precedence)")
    parser.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    for key in optional:
        flags, kwargs = _OPTIONAL_FLAGS[key]
        parser.add_argument(*flags, default=None, **kwargs)


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
    _add_common(p, "n", "boundary", "format")
    p.set_defaults(func=_cmd_fingerprint)

    p = subparsers.add_parser("symbolic", help="closed-form fingerprint")
    p.add_argument("player")
    p.add_argument("probe", nargs="?", default=None)
    p.add_argument("--joss-ann", metavar="BASE")
    _add_common(p)
    p.set_defaults(func=_cmd_symbolic)

    p = subparsers.add_parser("distance", help="pairwise fingerprint distances")
    p.add_argument(
        "sources",
        nargs="*",
        help="grid files or PLAYER:PROBE / PLAYER:ja / PLAYER:ja:BASE pairs",
    )
    _add_common(p, "boundary", "quad-n", "format")
    p.set_defaults(func=_cmd_distance)

    p = subparsers.add_parser("simulate", help="Monte Carlo estimate at a point")
    p.add_argument("player")
    p.add_argument("x", type=float)
    p.add_argument("y", type=float)
    p.add_argument("probe", nargs="?", default=None)
    p.add_argument("--joss-ann", metavar="BASE")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--replicates", type=int, default=None)
    _add_common(p, "boundary", "seed")
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
