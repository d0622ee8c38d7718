"""Command-line front end.

Every command reads and writes the JSON file formats only; all data goes
to stdout (or the -o target) and all error text to stderr. Exit codes:
0 success or positive verdict, 1 validation failure or inconclusive
verdict, 2 parse or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional

from . import catalog
from .automorphisms import (
    cycle_notation,
    enumerate_automorphisms,
    group_stats,
)
from .characters import Character, is_inner_cyclic_def, is_inner_cyclic_remark
from .combinatorics import Combinatorics, triangle_cycle
from .gluing import (
    find_generic_gluing,
    glue_arrangements,
    glue_combinatorics,
)
from .invariant import Ledger, detect_zariski, invariant_of_conjugate, invariant_of_glued
from .realization import Arrangement, derive_combinatorics

CATALOG_EMITTERS = {
    "ext-maclane-comb": lambda: catalog.extended_maclane_explicit().to_obj(),
    "maclane-comb": lambda: catalog.maclane_combinatorics().to_obj(),
    "ext-maclane+": lambda: catalog.extended_maclane_realization("+").to_obj(),
    "ext-maclane-": lambda: catalog.extended_maclane_realization("-").to_obj(),
    "xi-maclane": lambda: catalog.maclane_character().to_obj(),
    "rybnikov-comb": lambda: catalog.rybnikov_explicit().to_obj(),
    "rybnikov+": lambda: catalog.build_extended_rybnikov("+")[0].to_obj(),
    "rybnikov-": lambda: catalog.build_extended_rybnikov("-")[0].to_obj(),
    "ledger-seed": lambda: catalog.seed_ledger().to_obj(),
}

CATALOG_COMBINATORICS = {
    "M+": catalog.extended_maclane_explicit,
    "M-": catalog.extended_maclane_explicit,
    "R+": catalog.rybnikov_explicit,
    "R-": catalog.rybnikov_explicit,
}


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class _InvalidStructure(Exception):
    """A well-formed combinatorics that breaks an incidence axiom (exit 1)."""


def _load_valid_combinatorics(path: str) -> Combinatorics:
    """Read a combinatorics file and check both incidence axioms."""
    comb = Combinatorics.from_obj(_read_json(path))
    problems = comb.validate().messages()
    if problems:
        raise _InvalidStructure(f"{path}: invalid combinatorics: {problems[0]}")
    return comb


def _write_json(obj, path: Optional[str]) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _catalog_combinatorics(entry_id: str) -> Optional[Combinatorics]:
    """The combinatorics of a catalog ledger id; None for any other id."""
    make = CATALOG_COMBINATORICS.get(entry_id)
    return make() if make else None


def _load_ledger(path: str) -> Ledger:
    return Ledger.from_obj(_read_json(path), comb_lookup=_catalog_combinatorics)


def _parse_cycle_arg(text: str) -> tuple[int, int, int]:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--cycle wants three comma-separated indices, got {text!r}")
    return tuple(parts)  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zarpair",
        description="Exact line-arrangement combinatorics, triangle gluings "
        "and Zariski-pair certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="emit a built-in object")
    p.add_argument("name", choices=sorted(CATALOG_EMITTERS))
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("validate", help="check the two incidence axioms")
    p.add_argument("combinatorics", help="combinatorics file ('-' for stdin)")

    p = sub.add_parser("derive", help="combinatorics realized by an arrangement")
    p.add_argument("arrangement", help="arrangement file ('-' for stdin)")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("aut", help="automorphism group of a combinatorics")
    p.add_argument("combinatorics")
    p.add_argument("--stats", action="store_true", help="include group statistics")
    p.add_argument(
        "--elements", action="store_true", help="include elements in cycle notation"
    )

    p = sub.add_parser("inner-cyclic", help="test a character against a cycle")
    p.add_argument("combinatorics")
    p.add_argument("character")
    p.add_argument("--cycle", required=True, help="three line indices, e.g. 1,2,3")
    p.add_argument("--mode", choices=["def", "remark", "both"], default="both")

    p = sub.add_parser("glue", help="find a generic gluing and emit the result")
    p.add_argument("left", help="left arrangement file")
    p.add_argument("right", help="right arrangement file")
    p.add_argument("--max-candidates", type=int, default=200)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--report", default=None, help="write the gluing report here")

    p = sub.add_parser("glue-comb", help="combinatorial gluing along the triangle")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("invariant", help="derive ledger entries")
    inv_sub = p.add_subparsers(dest="invariant_command", required=True)
    q = inv_sub.add_parser("glue", help="multiplicativity: product of two entries")
    q.add_argument("--ledger", required=True)
    q.add_argument("--left", required=True, help="id of the left entry")
    q.add_argument("--right", required=True, help="id of the right entry")
    q.add_argument("--id", default=None, help="id for the derived entry")
    q.add_argument("-o", "--output", default=None)
    q = inv_sub.add_parser("conj", help="conjugation rule applied to an entry")
    q.add_argument("--ledger", required=True)
    q.add_argument("--entry", required=True)
    q.add_argument("--id", default=None)
    q.add_argument("-o", "--output", default=None)

    p = sub.add_parser("zariski", help="Zariski-pair verdict for a ledger entry")
    p.add_argument("--ledger", required=True)
    p.add_argument("--entry", required=True)
    p.add_argument("-o", "--output", default=None)

    return parser


def _cmd_catalog(args) -> int:
    _write_json(CATALOG_EMITTERS[args.name](), args.output)
    return 0


def _cmd_validate(args) -> int:
    comb = Combinatorics.from_obj(_read_json(args.combinatorics))
    report = comb.validate()
    _write_json({"valid": report.ok, "problems": report.messages()}, None)
    return 0 if report.ok else 1


def _cmd_derive(args) -> int:
    arr = Arrangement.from_obj(_read_json(args.arrangement))
    _write_json(derive_combinatorics(arr).to_obj(), args.output)
    return 0


def _cmd_aut(args) -> int:
    comb = _load_valid_combinatorics(args.combinatorics)
    group = enumerate_automorphisms(comb)
    obj: dict = {"order": group.order}
    if args.stats:
        obj["stats"] = group_stats(group).to_obj()
    if args.elements:
        obj["elements"] = [cycle_notation(p) for p in group.elements]
    _write_json(obj, None)
    return 0


def _cmd_inner_cyclic(args) -> int:
    comb = _load_valid_combinatorics(args.combinatorics)
    char = Character.from_obj(_read_json(args.character), comb)
    i, j, k = _parse_cycle_arg(args.cycle)
    cycle = triangle_cycle(comb, i, j, k)
    results = {}
    if args.mode in ("def", "both"):
        results["def"] = is_inner_cyclic_def(comb, char, cycle)
    if args.mode in ("remark", "both"):
        results["remark"] = is_inner_cyclic_remark(comb, char, cycle)
    _write_json(results, None)
    return 0 if all(results.values()) else 1


def _cmd_glue(args) -> int:
    """Glue two arrangement files along their first triangle.

    The report's ``checks`` are constant: find_generic_gluing returns only a
    spec that passed check_gluing and check_generic (apart from the triangle
    vertices, no singular point of either side lies on an unshared line of
    the other side), so both are true. The check_gluing inside
    glue_arrangements is that function's own guard on any spec it is given;
    it reads the spec's kept line images.
    """
    left = Arrangement.from_obj(_read_json(args.left))
    right = Arrangement.from_obj(_read_json(args.right))
    spec = find_generic_gluing(left, right, max_candidates=args.max_candidates)
    glued = glue_arrangements(spec)
    _write_json(glued.to_obj(), args.output)
    report = {
        "matrix": [[str(c) for c in row] for row in spec.map.rows],
        "parameter": list(spec.parameter) if spec.parameter else None,
        "shared_count": 3,
        "checks": {"gluing": True, "generic": True},
    }
    if args.report:
        _write_json(report, args.report)
    return 0


def _cmd_glue_comb(args) -> int:
    left = _load_valid_combinatorics(args.left)
    right = _load_valid_combinatorics(args.right)
    _write_json(glue_combinatorics(left, right).to_obj(), args.output)
    return 0


def _cmd_invariant(args) -> int:
    ledger = _load_ledger(args.ledger)
    if args.invariant_command == "glue":
        entry = invariant_of_glued(
            ledger.get(args.left), ledger.get(args.right), new_id=args.id
        )
    else:
        entry = invariant_of_conjugate(ledger.get(args.entry), new_id=args.id)
    _write_json(entry.to_obj(), args.output)
    return 0


def _cmd_zariski(args) -> int:
    ledger = _load_ledger(args.ledger)
    verdict = detect_zariski(ledger.get(args.entry))
    problems = verdict.check()
    if problems:
        raise ValueError("verdict failed self-check: " + "; ".join(problems))
    _write_json(verdict.to_obj(), args.output)
    return 0 if verdict.kind != "inconclusive" else 1


_HANDLERS = {
    "catalog": _cmd_catalog,
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "aut": _cmd_aut,
    "inner-cyclic": _cmd_inner_cyclic,
    "glue": _cmd_glue,
    "glue-comb": _cmd_glue_comb,
    "invariant": _cmd_invariant,
    "zariski": _cmd_zariski,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # One per process: a parser is a web of reference cycles, so building one
    # per run would leave each to the cyclic collector.
    return build_parser()


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except _InvalidStructure as exc:
        print(f"zarpair: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        # str() of a KeyError is the repr of its argument; print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"zarpair: error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
