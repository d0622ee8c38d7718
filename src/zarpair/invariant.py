"""The ledgered invariant and the Zariski-pair verdicts.

Invariant values attached to (arrangement, character, triangle) triples enter the ledger as published data and propagate by two exact
rules: a generic triangle gluing multiplies the two values, and conjugating
the arrangement conjugates the value. A non-real value then certifies an
ordered Zariski pair: gluing the arrangement with itself gives value v*v,
gluing it with its conjugate gives v*conj(v) = 1, and v*v = 1 would force
v = +-1, real. The verdict is a certificate carrying both derived entries;
nothing here computes topology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Literal, Optional

from .characters import Character, is_inner_cyclic_def
from .combinatorics import Combinatorics, Triangle, is_int_list, triangle_cycle
from .cyclotomic import CycloNum, parse_cyclo
from .gluing import glue_characters

__all__ = [
    "LedgerEntry",
    "Ledger",
    "invariant_of_glued",
    "invariant_of_conjugate",
    "detect_zariski",
    "ZariskiVerdict",
]

Provenance = Literal["published", "multiplicativity", "conjugation"]


@dataclass(frozen=True)
class LedgerEntry:
    """One ledgered value: arrangement id, inner-cyclic pair, exact value."""

    id: str
    character: Character
    cycle: Triangle
    value: CycloNum
    provenance: Provenance
    citation: str

    def check(self) -> list[str]:
        """Entry invariants; empty list when sound."""
        problems = []
        if self.provenance not in ("published", "multiplicativity", "conjugation"):
            problems.append(f"unknown provenance kind {self.provenance!r}")
        if self.value.order != self.character.modulus:
            problems.append(
                f"value lives at order {self.value.order}, "
                f"character at modulus {self.character.modulus}"
            )
        # I(A, xi, gamma) is xi of a homology class: a power of zeta^g
        k = self.value.as_root_of_unity()
        g = gcd(self.character.modulus, *self.character.exponents)
        if k is None:
            problems.append(f"value {self.value} is not a power of zeta")
        elif self.value.order == self.character.modulus and k % g:
            problems.append(
                f"value {self.value} is not in the image of the character, "
                f"the powers of zeta^{g}"
            )
        try:
            if not is_inner_cyclic_def(
                self.character.base, self.character, self.cycle
            ):
                problems.append("character is not inner-cyclic for the cycle")
        except ValueError:
            problems.append("cycle does not live on the combinatorics")
        return problems

    def to_obj(self, include_combinatorics: bool = True) -> dict:
        obj = {
            "id": self.id,
            "modulus": self.character.modulus,
            "exponents": list(self.character.exponents),
            "cycle": list(self.cycle.lines),
            "value": str(self.value),
            "provenance": f"{self.provenance}: {self.citation}",
        }
        if include_combinatorics:
            obj["combinatorics"] = self.character.base.to_obj()
        return obj

    @classmethod
    def from_obj(cls, obj: dict, base: Optional[Combinatorics] = None) -> "LedgerEntry":
        """Read the file form; a malformed object raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"ledger entry {obj!r} is not a JSON object")
        for key in ("id", "provenance"):
            if not isinstance(obj.get(key), str):
                raise ValueError(f"ledger entry needs a string {key!r}")
        if not is_int_list(obj.get("cycle")) or len(obj["cycle"]) != 3:
            raise ValueError(f"entry {obj['id']!r}: 'cycle' must be three line indices")
        if base is None:
            if "combinatorics" not in obj:
                raise ValueError(
                    f"entry {obj['id']!r} carries no combinatorics and none "
                    "was supplied"
                )
            base = Combinatorics.from_obj(obj["combinatorics"])
            problems = base.validate().messages()
            if problems:
                raise ValueError(
                    f"entry {obj['id']!r}: invalid combinatorics: {problems[0]}"
                )
        character = Character.from_obj(obj, base)
        i, j, k = obj["cycle"]
        cycle = triangle_cycle(base, i, j, k)
        kind, _, citation = obj["provenance"].partition(":")
        return cls(
            obj["id"],
            character,
            cycle,
            parse_cyclo(character.modulus, obj["value"]),
            kind.strip(),  # type: ignore[arg-type]
            citation.strip(),
        )


class Ledger:
    """Append-only store of entries, validated on the way in."""

    def __init__(self, entries: Iterable[LedgerEntry] = ()):
        self._entries: dict[str, LedgerEntry] = {}
        for entry in entries:
            self.register(entry)

    def register(self, entry: LedgerEntry) -> LedgerEntry:
        if entry.id in self._entries:
            raise ValueError(f"ledger already holds an entry with id {entry.id!r}")
        problems = entry.check()
        if problems:
            raise ValueError(
                f"entry {entry.id!r} violates ledger invariants: "
                + "; ".join(problems)
            )
        self._entries[entry.id] = entry
        return entry

    def get(self, entry_id: str) -> LedgerEntry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise KeyError(f"no ledger entry with id {entry_id!r}") from None

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> list[LedgerEntry]:
        return list(self._entries.values())

    def to_obj(self) -> list[dict]:
        return [e.to_obj() for e in self._entries.values()]

    @classmethod
    def from_obj(cls, obj: list[dict], comb_lookup=None) -> "Ledger":
        """Read the file form; a malformed object raises ValueError."""
        if not isinstance(obj, list):
            raise ValueError("ledger must be a JSON list of entries")
        ledger = cls()
        for entry_obj in obj:
            if not (isinstance(entry_obj, dict) and isinstance(entry_obj.get("id"), str)):
                raise ValueError(f"ledger entry {entry_obj!r} has no string 'id'")
            base = None
            if "combinatorics" not in entry_obj and comb_lookup is not None:
                base = comb_lookup(entry_obj["id"])
            ledger.register(LedgerEntry.from_obj(entry_obj, base))
        return ledger


def _require_first_triangle(entry: LedgerEntry) -> None:
    if set(entry.cycle.lines) != {1, 2, 3}:
        raise ValueError(
            f"entry {entry.id!r} is not supported by the first three lines; "
            "gluing derivations need the cycle on the shared triangle"
        )


def invariant_of_glued(
    left: LedgerEntry,
    right: LedgerEntry,
    new_id: str | None = None,
    gluing=None,
) -> LedgerEntry:
    """Entry for the glued arrangement: glued character, the triangle of
    the shared lines, and the product of the two values.

    An explicit gluing (a GluingSpec) may be supplied for cross-checking;
    it must be generic and its two sides must realize the entries'
    combinatorics. The derived value never depends on the map itself.
    """
    _require_first_triangle(left)
    _require_first_triangle(right)
    if gluing is not None:
        from .gluing import check_generic
        from .realization import derive_combinatorics

        if not check_generic(gluing):
            raise ValueError("supplied gluing is not generic")
        for arr, entry in ((gluing.left, left), (gluing.right, right)):
            derived = derive_combinatorics(arr)
            if set(derived.points) != set(entry.character.base.points):
                raise ValueError(
                    f"gluing side does not realize the combinatorics of "
                    f"entry {entry.id!r}"
                )
    character = glue_characters(left.character, right.character, 3)
    cycle = triangle_cycle(character.base, 1, 2, 3)
    order = lcm(left.value.order, right.value.order)
    value = left.value.lift(order) * right.value.lift(order)
    entry = LedgerEntry(
        new_id or f"glue({left.id},{right.id})",
        character,
        cycle,
        value,
        "multiplicativity",
        f"product of the {left.id} and {right.id} values under a generic "
        "triangle gluing",
    )
    problems = entry.check()
    if problems:  # re-verified rather than trusted
        raise ValueError(f"derived glued entry is unsound: {'; '.join(problems)}")
    return entry


def invariant_of_conjugate(
    entry: LedgerEntry, new_id: str | None = None
) -> LedgerEntry:
    """Entry for the conjugate arrangement: same combinatorics, character and
    cycle, conjugated value."""
    out = LedgerEntry(
        new_id or f"conj({entry.id})",
        entry.character,
        entry.cycle,
        entry.value.conjugate(),
        "conjugation",
        f"conjugate of the {entry.id} value (the invariant commutes with "
        "complex conjugation)",
    )
    problems = out.check()
    if problems:
        raise ValueError(f"derived conjugate entry is unsound: {'; '.join(problems)}")
    return out


@dataclass(frozen=True)
class ZariskiVerdict:
    """Machine-checkable certificate produced by detect_zariski.

    For a non-real value the two derived entries realize the same glued
    combinatorics with different invariant values, so no order-preserving
    homeomorphism can identify the two glued pairs.
    """

    kind: Literal["inconclusive", "ordered_zariski_pair"]
    base: LedgerEntry
    plus: Optional[LedgerEntry] = None
    minus: Optional[LedgerEntry] = None
    reasoning: tuple[str, ...] = field(default_factory=tuple)

    @property
    def value_pair(self) -> Optional[tuple[CycloNum, CycloNum]]:
        if self.plus is None or self.minus is None:
            return None
        return (self.plus.value, self.minus.value)

    def check(self) -> list[str]:
        """Re-verify the algebra of the certificate; empty list when sound."""
        problems = self.base.check()
        if self.kind == "inconclusive":
            if not self.base.value.is_real():
                problems.append("inconclusive verdict on a non-real value")
            return problems
        if self.plus is None or self.minus is None:
            return problems + ["pair verdict without derived entries"]
        problems += self.plus.check()
        problems += self.minus.check()
        v = self.base.value
        order = lcm(v.order, self.plus.value.order)
        if self.plus.value.lift(order) != v.lift(order) * v.lift(order):
            problems.append("plus value is not the square of the base value")
        if self.minus.value != CycloNum.one(self.minus.value.order):
            problems.append("minus value is not 1")
        if self.plus.value.lift(order) == self.minus.value.lift(order):
            problems.append("derived values coincide; no pair distinguished")
        return problems

    def to_obj(self) -> dict:
        obj = {
            "verdict": self.kind,
            "base": self.base.to_obj(include_combinatorics=False),
            "reasoning": list(self.reasoning),
        }
        if self.plus is not None and self.minus is not None:
            obj["plus"] = self.plus.to_obj(include_combinatorics=False)
            obj["minus"] = self.minus.to_obj(include_combinatorics=False)
            obj["values"] = [str(self.plus.value), str(self.minus.value)]
        return obj


def detect_zariski(entry: LedgerEntry) -> ZariskiVerdict:
    """Zariski-pair verdict for a triangular inner-cyclic ledger entry.

    A real value is inconclusive. Otherwise the self-gluing and the gluing
    with the conjugate arrangement share a combinatorics but carry values
    v*v and 1, which differ exactly because v is not real. The order
    hypothesis stays: the glued combinatorics always has the automorphism
    that swaps the two copies, so its group is never trivial.
    """
    v = entry.value
    if v.is_real():
        return ZariskiVerdict(
            "inconclusive",
            entry,
            reasoning=(
                f"value {v} of {entry.id} is real; the glued values v*v and "
                "v*conj(v) cannot be told apart by this method",
            ),
        )
    conjugate = invariant_of_conjugate(entry, new_id=f"conj({entry.id})")
    plus = invariant_of_glued(entry, entry, new_id=f"pair+({entry.id})")
    minus = invariant_of_glued(entry, conjugate, new_id=f"pair-({entry.id})")
    reasoning = (
        f"value {v} of {entry.id} is not real: conj({v}) = {v.conjugate()} differs",
        "multiplicativity: a generic triangle gluing multiplies invariant "
        f"values, so the self-gluing carries {plus.value} and the gluing "
        f"with the conjugate carries {v} * conj({v}) = 1",
        "both gluings are generic, so the two glued arrangements share one "
        "ordered combinatorics",
        "were v*v = 1 the value v would be +-1 and real; hence the two glued "
        "values differ",
        "the value is invariant under orientation- and order-preserving "
        "homeomorphism of the pair, and conjugation settles the orientation "
        "case, so no order-preserving homeomorphism exists: an ordered "
        "Zariski pair",
    )
    return ZariskiVerdict("ordered_zariski_pair", entry, plus, minus, reasoning)
