"""The four benchmark workloads: seeded inputs, one operation, an oracle.

Each workload generates the input of operation ``index`` from the run seed
alone, so every run with the same seed executes the same sequence of
operations. ``run`` is the timed operation; ``check`` is the oracle and is
never timed. Oracles rest on facts fixed by construction (transcribed
point sets, published ledger values, the fan isomorphism rule, a direct
point-by-point permutation check) rather than on the code under test.

Every operation is a fixed-composition batch, so its cost is unimodal:

- certify: glue seeded projective images of M+ with M+ or M- (order 3,
  9+9 lines), derive the glued combinatorics, glue the characters, derive
  the invariant and the Zariski verdict. Exact arithmetic dominates.
- cli-lifted: one in-process CLI session (glue --report, derive,
  invariant glue, zariski) on JSON files holding seeded images of the
  MacLane realizations lifted to Q(zeta_12). Crosses the file format.
- symmetry: automorphism group, group statistics and the copy-preserving
  subgroup of seeded relabelings of four structures. The group layer
  dominates.
- isomorphism: a batch of is_isomorphic queries, one known negative (fans
  of modulus 6) and three known positives. The search kernel dominates.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from zarpair import catalog, cli
from zarpair.automorphisms import (
    copy_preserving_subgroup,
    enumerate_automorphisms,
    group_stats,
)
from zarpair.combinatorics import (
    Combinatorics,
    apply_line_permutation,
    is_isomorphic,
)
from zarpair.cyclotomic import CycloNum
from zarpair.gluing import (
    find_generic_gluing,
    glue_arrangements,
    glue_characters,
    glue_combinatorics,
)
from zarpair.invariant import detect_zariski, invariant_of_glued
from zarpair.realization import (
    Arrangement,
    ProjLine,
    ProjMap,
    apply_map,
    derive_combinatorics,
)

# Value z and value 1 at order 3 in the power basis (1, z).
Z3 = (Fraction(0), Fraction(1))
ONE3 = (Fraction(1), Fraction(0))


def _rng(seed: int, name: str, index) -> random.Random:
    return random.Random(f"{seed}/{name}/{index}")


def random_map(rng: random.Random, order: int) -> ProjMap:
    """Invertible 3x3 matrix with small integer entries."""
    while True:
        rows = [
            [CycloNum.from_rational(order, rng.randint(-3, 3)) for _ in range(3)]
            for _ in range(3)
        ]
        try:
            return ProjMap(rows)
        except ValueError:  # singular
            continue


def relabel(comb: Combinatorics, perm: tuple[int, ...]) -> Combinatorics:
    """The structure with line i renamed perm[i-1] (harness-side, no library)."""
    return Combinatorics(
        comb.lines, [tuple(perm[i - 1] for i in p) for p in comb.points]
    )


def random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(perm)


def maps_points_onto_points(points: set, perm) -> bool:
    return {tuple(sorted(perm[i - 1] for i in p)) for p in points} == points


def fan(k: int, shift: int) -> Combinatorics:
    """Two fans of k lines through two points of line 1, matched across
    lines 2 and 3 by the identity and by a cyclic shift; two such fans are
    isomorphic exactly when gcd(shift, k) agrees."""
    fan_a = list(range(4, 4 + k))
    fan_b = list(range(4 + k, 4 + 2 * k))
    n = 3 + 2 * k
    points = [tuple([1] + fan_a), tuple([1] + fan_b), (1, 2), (1, 3), (2, 3)]
    points += [(2, fan_a[i], fan_b[i]) for i in range(k)]
    points += [(3, fan_a[i], fan_b[(i + shift) % k]) for i in range(k)]
    covered = {pair for p in points for pair in combinations(sorted(p), 2)}
    points += [
        pair for pair in combinations(range(1, n + 1), 2) if pair not in covered
    ]
    return Combinatorics([f"L{i}" for i in range(1, n + 1)], points)


class Workload:
    """One seeded workload. Subclasses set ``name`` and ``kinds`` and
    implement ``make_input``, ``run`` and ``check``."""

    name = ""
    kinds: tuple = (None,)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def rng(self, index) -> random.Random:
        return _rng(self.seed, self.name, index)

    def make_input(self, index: int, kind=None):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> list[str]:
        raise NotImplementedError

    def describe(self, inp) -> bytes:
        """Canonical bytes of a generated input, for the determinism test."""
        raise NotImplementedError


class Certify(Workload):
    name = "certify"
    kinds = ("+", "-")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sides = {
            s: catalog.extended_maclane_realization(s) for s in ("+", "-")
        }
        self.character = catalog.maclane_character()
        self.ledger = catalog.seed_ledger()
        self.expected_points = frozenset(catalog.rybnikov_explicit().points)
        self.expected_glued = {"+": Z3, "-": ONE3}
        self.expected_verdict = (Z3, ONE3)

    def make_input(self, index, kind=None):
        sign = kind or ("+" if index % 2 == 0 else "-")
        rng = self.rng(index)
        left = apply_map(self.sides["+"], random_map(rng, 3))
        right = apply_map(self.sides[sign], random_map(rng, 3))
        return sign, left, right

    def run(self, inp):
        sign, left, right = inp
        spec = find_generic_gluing(left, right)
        glued = glue_arrangements(spec)
        comb = derive_combinatorics(glued)
        character = glue_characters(self.character, self.character, 3)
        entry = invariant_of_glued(
            self.ledger.get("M+"), self.ledger.get("M" + sign), new_id=f"R{sign}"
        )
        verdict = detect_zariski(self.ledger.get("M+"))
        return spec, comb, character, entry, verdict, verdict.check()

    def check(self, inp, result):
        sign = inp[0]
        spec, comb, character, entry, verdict, problems = result
        out = []
        if len(comb.points) != 61 or frozenset(comb.points) != self.expected_points:
            out.append("derived glued combinatorics differs from the 61-point one")
        if character.base.n_lines != 15:
            out.append("glued character is not on 15 lines")
        if entry.value.coeffs != self.expected_glued[sign]:
            out.append(f"glued value {entry.value} for M+ x M{sign}")
        pair = verdict.value_pair
        if pair is None or (pair[0].coeffs, pair[1].coeffs) != self.expected_verdict:
            out.append(f"verdict values {pair}")
        if problems:
            out.append("verdict check: " + "; ".join(problems))
        return out

    def describe(self, inp):
        sign, left, right = inp
        return json.dumps([sign, left.to_obj(), right.to_obj()]).encode()


def _lift(arr: Arrangement, order: int) -> Arrangement:
    return Arrangement(
        order,
        [ProjLine(l.name, tuple(c.lift(order) for c in l.coeffs)) for l in arr.lines],
    )


# Files one CLI session writes.
OUTPUTS = ("glued", "report", "comb", "entry", "verdict")


class CliLifted(Workload):
    name = "cli-lifted"
    order = 12

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.sides = {
            s: _lift(catalog.extended_maclane_realization(s), self.order)
            for s in ("+", "-")
        }
        self.ledger_path = workdir / "ledger.json"
        self.ledger_path.write_text(json.dumps(catalog.seed_ledger().to_obj()))
        self.expected_points = frozenset(catalog.rybnikov_explicit().points)
        self.expected_values = ["z", "1"]

    def make_input(self, index, kind=None):
        rng = self.rng(index)
        paths = {k: self.workdir / f"{k}.json" for k in ("left", "right") + OUTPUTS}
        objs = {}
        for side, sign in (("left", "+"), ("right", "-")):
            objs[side] = apply_map(self.sides[sign], random_map(rng, self.order)).to_obj()
            paths[side].write_text(json.dumps(objs[side]))
        for key in OUTPUTS:
            paths[key].unlink(missing_ok=True)
        return objs, paths

    def run(self, inp):
        _, p = inp
        ledger = str(self.ledger_path)
        sessions = [
            ["glue", str(p["left"]), str(p["right"]), "-o", str(p["glued"]),
             "--report", str(p["report"])],
            ["derive", str(p["glued"]), "-o", str(p["comb"])],
            ["invariant", "glue", "--ledger", ledger, "--left", "M+",
             "--right", "M-", "-o", str(p["entry"])],
            ["zariski", "--ledger", ledger, "--entry", "M+", "-o", str(p["verdict"])],
        ]
        return [cli.run(argv) for argv in sessions]

    def check(self, inp, codes):
        _, p = inp
        out = []
        if codes != [0, 0, 0, 0]:
            return [f"exit codes {codes}"]
        try:
            outputs = {k: json.loads(p[k].read_text()) for k in OUTPUTS}
        except (OSError, ValueError) as exc:
            return [f"output does not re-parse: {exc}"]
        glued = outputs["glued"]
        if glued.get("cyclotomic_order") != self.order or len(glued["lines"]) != 15:
            out.append("glued arrangement is not 15 lines at order 12")
        if not all(outputs["report"]["checks"].values()):
            out.append(f"report checks {outputs['report']['checks']}")
        points = frozenset(tuple(sorted(q)) for q in outputs["comb"]["points"])
        if points != self.expected_points:
            out.append("derived combinatorics differs from the 61-point one")
        if outputs["entry"]["value"] != "1":
            out.append(f"invariant glue value {outputs['entry']['value']}")
        if outputs["verdict"].get("values") != self.expected_values:
            out.append(f"zariski values {outputs['verdict'].get('values')}")
        return out

    def describe(self, inp):
        return json.dumps(inp[0], sort_keys=True).encode()


class Symmetry(Workload):
    name = "symmetry"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        m = catalog.extended_maclane_explicit()
        self.structures = [
            catalog.maclane_combinatorics(),
            m,
            catalog.rybnikov_explicit(),
            glue_combinatorics(m, m),
        ]
        # Expected (order, element-order histogram or None, subgroup order or None).
        self.expected = [
            (48, None, None),
            (12, {1: 1, 2: 7, 3: 2, 6: 2}, None),
            (144, None, 72),
            (144, None, 72),
        ]

    def make_input(self, index, kind=None):
        rng = self.rng(index)
        batch = []
        for comb in self.structures:
            perm = random_perm(rng, comb.n_lines)
            parts = None
            if comb.n_lines == 15:
                parts = (
                    frozenset(perm[i - 1] for i in range(4, 10)),
                    frozenset(perm[i - 1] for i in range(10, 16)),
                )
            batch.append((relabel(comb, perm), parts))
        return batch

    def run(self, batch):
        out = []
        for comb, parts in batch:
            group = enumerate_automorphisms(comb)
            stats = group_stats(group)
            sub = copy_preserving_subgroup(group, *parts) if parts else None
            out.append((group, stats, sub))
        return out

    def check(self, batch, result):
        out = []
        for (comb, _), (group, stats, sub), (order, hist, sub_order) in zip(
            batch, result, self.expected
        ):
            if group.order != order or len(set(group.elements)) != order:
                out.append(f"{comb.n_lines} lines: order {group.order}, want {order}")
            points = set(comb.points)
            if not all(maps_points_onto_points(points, p) for p in group.elements):
                out.append(f"{comb.n_lines} lines: a permutation moves a point off")
            if hist is not None and stats.element_order_histogram != hist:
                out.append(f"histogram {stats.element_order_histogram}")
            if sub_order is not None and (sub is None or sub.order != sub_order):
                out.append(f"copy-preserving order {sub and sub.order}, want {sub_order}")
        return out

    def describe(self, batch):
        return json.dumps(
            [[c.to_obj(), sorted(map(sorted, p)) if p else None] for c, p in batch]
        ).encode()


class Isomorphism(Workload):
    name = "isomorphism"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        r = catalog.rybnikov_explicit()
        m = catalog.extended_maclane_explicit()
        self.glued = [glue_combinatorics(r, m), glue_combinatorics(r, r)]

    def make_input(self, index, kind=None):
        rng = self.rng(index)
        queries = []
        # Negative: modulus 6 fans whose shifts differ in gcd with 6.
        shift_a = rng.choice([1, 5])
        shift_b = rng.choice([2, 3, 4])
        a, b = (shift_a, shift_b) if rng.random() < 0.5 else (shift_b, shift_a)
        queries.append((fan(6, a), fan(6, b), math.gcd(a, 6) == math.gcd(b, 6)))
        for comb in self.glued:
            queries.append((comb, comb, True))
        # Positive: modulus 7 fans, every shift has gcd 1 with 7.
        a, b = rng.randrange(1, 7), rng.randrange(1, 7)
        queries.append((fan(7, a), fan(7, b), True))
        # Only the target is relabeled: the kernel's visit order follows the
        # source, and on canonical fans the negative exhausts its whole tree.
        return [
            (c1, relabel(c2, random_perm(rng, c2.n_lines)), expect)
            for c1, c2, expect in queries
        ]

    def run(self, batch):
        return [is_isomorphic(c1, c2) for c1, c2, _ in batch]

    def check(self, batch, result):
        out = []
        for (c1, c2, expect), perm in zip(batch, result):
            if (perm is not None) != expect:
                out.append(f"{c1.n_lines} lines: isomorphic={perm is not None}, want {expect}")
            elif perm is not None and set(
                apply_line_permutation(c1, perm).points
            ) != set(c2.points):
                out.append(f"{c1.n_lines} lines: returned map is no isomorphism")
        return out

    def describe(self, batch):
        return json.dumps([[c1.to_obj(), c2.to_obj(), e] for c1, c2, e in batch]).encode()


WORKLOADS = {w.name: w for w in (Certify, CliLifted, Symmetry, Isomorphism)}
