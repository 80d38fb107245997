"""Command-line front end: lattice file reports, rank computations, suites.

Exit codes: 0 success, 1 usage, input or validation error, 2 property
failure.  Every error that exits 1 prints one ``error:`` line; the ring comes
from ``--ring`` alone, the rationals by default.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .exact import RankStats, parse_ring
from .functor import (DEFAULT_FUNCTION_CAP, gamma_span_rank, theta_rank,
                      total_rank_formula)
from .lattices import (CapExceeded, LatticeError, ideal_lattice, irreducibles,
                       is_distributive, lattice_from_json, lattice_to_json,
                       mobius, poset_from_json)

# Python prints no integer of more digits by default (``sys.get_int_max_str_digits``).
_MAX_RANK_DIGITS = 4300


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ``_InputError``: exit 1, not argparse's 2."""

    def error(self, message):
        raise _InputError(message)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err.strerror}")
    except (ValueError, RecursionError) as err:  # bad JSON, not UTF-8, or nested too deep
        raise _InputError(f"{path}: JSON parse error: {err}")


def _load(path, parse=lattice_from_json):
    """A lattice (or, with ``poset_from_json``, a poset) read from a file."""
    try:
        return parse(_load_json(path))
    except LatticeError as err:
        raise _InputError(f"{path}: {err}")


def _ring_from(args):
    try:
        return parse_ring(args.ring)
    except ValueError as err:
        raise _InputError(str(err))


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _cmd_lattice_check(args):
    lat = _load(args.file)
    info = lattice_to_json(lat)
    info["irreducible_count"] = len(info["irreducibles"])
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        shape = "distributive" if info["distributive"] else "not distributive"
        print(f"lattice on {lat.n} elements: {shape}, "
              f"{info['irreducible_count']} irreducibles "
              f"(bottom={lat.bottom}, top={lat.top})")
    return 0


def _cmd_lattice_ideals(args):
    poset = _load(args.file, poset_from_json)
    lat, enc = ideal_lattice(poset, args.direction)
    payload = lattice_to_json(lat)
    payload["encodings"] = list(enc)
    payload["direction"] = args.direction
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{args.direction} ideals: {lat.n} of a {poset.n}-point order")
        members = [[e for e in range(poset.n) if m >> e & 1] for m in enc]
        for i, m in enumerate(members):
            print(f"  {i}: {{{', '.join(map(str, m))}}}")
    return 0


def _cmd_lattice_mobius(args):
    lat = _load(args.file)
    table = mobius(lat)
    if args.json:
        print(json.dumps({"size": lat.n,
                          "mobius": [[a, b, v] for (a, b), v in sorted(table.items())]},
                         sort_keys=True))
    else:
        for (a, b), v in sorted(table.items()):
            print(f"mu({a},{b}) = {v}")
    return 0


def _cmd_lattice_endo(args):
    from .morphisms import e_t, max_tuple_size, p_tuples, tot_basis
    lat = _load(args.file)
    sizes = [len(p_tuples(lat, n)) for n in range(max_tuple_size(lat) + 1)]
    payload = {
        "size": lat.n,
        "tuple_counts": sizes,
        "chain_image_endomorphisms": len(tot_basis(lat)),
        "central_idempotent_terms": len(e_t(lat).terms),
        "matrix_unit_dimension": sum(s * s for s in sizes),
    }
    _emit(payload, args.json)
    return 0


def _cmd_rank(args):
    if args.points < 0:
        raise _InputError(f"--points must be non-negative, got {args.points}")
    if args.cap < 1:
        raise _InputError(f"--cap must be at least 1, got {args.cap}")
    lat = _load(args.file)
    ring = _ring_from(args)
    stats = RankStats(shape=None, path="formula")
    if args.method == "theta":
        value = theta_rank(lat, args.points, ring, args.cap, stats)
    elif args.method == "gamma":
        value = gamma_span_rank(lat, args.points, ring, args.cap, stats)
    else:
        if not lat.is_chain():
            raise _InputError(
                "--method formula applies only to totally ordered lattices")
        # On an n-chain the count lies between n^(points - n + 1) and n^points.
        if ((args.points - lat.n + 1) * math.log10(lat.n) > _MAX_RANK_DIGITS + 1
                or (value := total_rank_formula(lat.n - 1, args.points))
                >= 10 ** _MAX_RANK_DIGITS):
            raise _InputError(f"the formula rank at {args.points} points has more than "
                              f"{_MAX_RANK_DIGITS} digits")
    if args.json:
        print(json.dumps({"rank": value, "points": args.points,
                          "method": args.method, "ring": ring.name,
                          "exact": ring.exact,
                          "shape": stats.shape and list(stats.shape),
                          "path": stats.path, "peeled": stats.peeled,
                          "prime": stats.prime,
                          "build_s": round(stats.build_s, 6),
                          "eliminate_s": round(stats.eliminate_s, 6)},
                         sort_keys=True))
    else:
        note = "" if ring.exact else "  (probabilistic ring)"
        print(f"{value}{note}")
    return 0


def _limits(args):
    """The bounds of a verify run: each limit left unset on the command line
    takes its ``Limits()`` default."""
    from .suite import Limits
    given = {name: getattr(args, name) for name in ("max_lattice", "max_points", "samples")
             if getattr(args, name) is not None}
    try:
        return Limits(**given)
    except ValueError as err:
        raise _InputError(str(err))


def _cmd_verify(args):
    from .suite import list_checks, run_suite, suite_names
    ring = _ring_from(args)
    if args.suite not in suite_names():
        raise _InputError(f"unknown suite {args.suite!r}; known: {', '.join(suite_names())}")
    limits = _limits(args)
    if args.list:
        for name, anchor, suites in list_checks():
            print(f"{name} [{', '.join(suites)}]: {anchor}")
        return 0
    report = run_suite(args.suite, limits, args.seed, ring)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(report.to_text())
    return 0 if report.passed else 2


def _cmd_catalog(args):
    from .catalog import catalog_entries
    for flag, value in (("--max-size", args.max_size), ("--exhaustive", args.exhaustive)):
        if value is not None and value < 0:
            raise _InputError(f"{flag} must be non-negative, got {value}")
    entries = catalog_entries(args.max_size, args.exhaustive)
    if args.json:
        payload = [{"name": name, "size": lat.n,
                    "distributive": is_distributive(lat),
                    "irreducibles": len(irreducibles(lat)[0])}
                   for name, lat in entries]
        print(json.dumps(payload, sort_keys=True))
    else:
        for name, lat in entries:
            shape = "distributive" if is_distributive(lat) else "not distributive"
            print(f"{name:10} n={lat.n:2}  {shape}")
    return 0


@functools.cache
def _build_parser():
    """The command line's parser, built on first use and then kept, so that
    each ``main`` call in one process parses against the same one.  Parsing
    leaves it as it was: each call gets a fresh namespace.  Nothing is built
    at import time.  A ``cfl`` command builds it once either way, so no
    command changes; only a process that calls ``main`` many times gains,
    such as the tests or a benchmark pass of four rank queries."""
    parser = _Parser(
        prog="cfl",
        description="Exact computations on finite lattices and relations")
    sub = parser.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="reports on a lattice or poset file")
    lat_sub = lat.add_subparsers(dest="subcommand", required=True)
    for name, fn, needs_direction in (
            ("check", _cmd_lattice_check, False),
            ("ideals", _cmd_lattice_ideals, True),
            ("mobius", _cmd_lattice_mobius, False),
            ("endo", _cmd_lattice_endo, False)):
        p = lat_sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        if needs_direction:
            p.add_argument("--direction", choices=("lower", "upper"),
                           default="lower")
        p.set_defaults(fn=fn)

    rank = sub.add_parser("rank", help="rank of the quotient module at a point count")
    rank.add_argument("file")
    rank.add_argument("--points", type=int, required=True)
    rank.add_argument("--method", choices=("theta", "gamma", "formula"),
                      default="theta")
    rank.add_argument("--ring", default="rat")
    rank.add_argument("--cap", type=int, default=DEFAULT_FUNCTION_CAP)
    rank.add_argument("--json", action="store_true")
    rank.set_defaults(fn=_cmd_rank)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="all",
                        help="a suite name; --list shows the suites of each check")
    for flag in ("--max-lattice", "--max-points", "--samples"):
        verify.add_argument(flag, type=int)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--ring", default="rat")
    verify.add_argument("--json", action="store_true")
    verify.add_argument("--list", action="store_true",
                        help="list the claim-to-check map and exit")
    verify.set_defaults(fn=_cmd_verify)

    cat = sub.add_parser("catalog", help="list the built-in lattice catalog")
    cat.add_argument("--max-size", type=int, default=None)
    cat.add_argument("--exhaustive", type=int, default=0)
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(fn=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except (_InputError, CapExceeded, MemoryError) as err:
        kind = "out of memory: " if isinstance(err, MemoryError) else ""
        print(f"error: {kind}{err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
