"""Check suites over a parsed workspace.

Each suite yields CheckRecords in a deterministic order (entities sorted
by name, checks in a fixed sequence), so a run with the same document,
budget and seed produces byte-identical machine reports.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product

from .convolution import (
    _validate_regime,
    all_kind_functionals,
    check_action,
    check_ideal,
    check_quasiring,
    invariant_subfamily,
    saturate,
    support_bounds,
)
from .errors import InputError, OrdalgError, PreconditionError
from .functionals import check_idempotent, check_weak_properties, monad_check
from .order import check_order_axioms
from .report import Verdict, fmt_witness
from .sproduct import (
    check_transfer_distributivity,
    componentwise_leq,
    find_nonassoc_witness,
    lex_compare,
)
from .structures import check_law
from .workspace import Workspace

SUITES = ("laws", "idempotent", "monad", "convolution", "s-construction")

CORE_LAWS = ("neutral", "absorb", "assoc-add", "assoc-mul", "comm-add", "comm-mul", "left-dist", "right-dist")


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    law: str
    verdict: Verdict

    def as_record_line(self) -> str:
        status = "pass" if self.verdict.holds else "fail"
        parts = [self.check_id, self.law, status, fmt_witness(self.verdict.witness)]
        if self.verdict.note:
            parts.append(self.verdict.note)
        return "\t".join(parts)

    def as_text(self) -> str:
        mark = "PASS" if self.verdict.holds else "FAIL"
        line = f"[{mark}] {self.check_id} ({self.law})"
        if self.verdict.witness is not None:
            line += f"\n       witness: {fmt_witness(self.verdict.witness)}"
        if self.verdict.note:
            line += f"\n       note: {self.verdict.note}"
        return line


def suite_laws(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.structures):
        s = ws.structures[name]
        records.append(
            CheckRecord(f"laws/{name}/order", "order-directed", check_order_axioms(s.order, "directed"))
        )
        for law in CORE_LAWS:
            declared = law in s.flags or law in ("neutral", "absorb")
            verdict = check_law(s, law)
            if not declared and not verdict.holds:
                # undeclared laws may legitimately fail; report as informational pass
                verdict = Verdict.passed(law, note=f"not declared; first exception {fmt_witness(verdict.witness)}")
            records.append(CheckRecord(f"laws/{name}/{law}", law, verdict))
    return records


def suite_idempotent(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.functionals):
        nu = ws.functionals[name]
        rep = check_idempotent(nu, budget=budget, seed=seed)
        for law in ("normalized", "left-shift", "right-shift", "join", "meet"):
            records.append(CheckRecord(f"idempotent/{name}/{law}", law, rep[law]))
        weak = check_weak_properties(nu, budget=budget, seed=seed)
        for law in ("weakly-additive", "order-preserving", "non-expanding", "weak-implies-nonexpanding"):
            records.append(CheckRecord(f"weak/{name}/{law}", law, weak[law]))
    return records


def suite_monad(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.spaces):
        space = ws.spaces[name]
        if len(space.K.elements) ** len(space.functions()) > budget:
            records.append(
                CheckRecord(
                    f"monad/{name}/skipped",
                    "monad",
                    Verdict.passed("monad", note="space too large for the budget; skipped"),
                )
            )
            continue
        rep = monad_check(space)
        for law, verdict in rep.verdicts.items():
            records.append(CheckRecord(f"monad/{name}/{law}", law, verdict))
    return records


def suite_convolution(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.actions):
        sys = ws.actions[name]
        kind = ws.kinds[name]
        records.append(CheckRecord(f"convolution/{name}/action", "action", check_action(sys)))
        _validate_regime(sys)
        try:
            seedfam = all_kind_functionals(sys, kind)
        except PreconditionError as exc:
            records.append(
                CheckRecord(
                    f"convolution/{name}/kind",
                    f"kind-{kind}",
                    Verdict.failed(f"kind-{kind}", None, note=str(exc)),
                )
            )
            continue
        alg = saturate(seedfam, sys, kind, budget=budget)
        rep = check_quasiring(alg)
        for law, verdict in rep.verdicts.items():
            records.append(CheckRecord(f"convolution/{name}/{law}", law, verdict))
        H = invariant_subfamily(alg)
        ideal = check_ideal(H, alg)
        for law, verdict in ideal.verdicts.items():
            records.append(CheckRecord(f"convolution/{name}/{law}", law, verdict))
        for i, nu in enumerate(H):
            sb = support_bounds(nu, sys)
            ok = sb.contained_in_t and sb.contained_in_p
            note = "support degenerate" if sb.support_degenerate else ""
            records.append(
                CheckRecord(
                    f"convolution/{name}/support-bound-{i}",
                    "support-bound",
                    Verdict(ok, "support-bound", None if ok else (tuple(sorted(sb.support)),), note),
                )
            )
    return records


def suite_sconstruction(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.schemes):
        scheme = ws.schemes[name]
        rng = random.Random(seed)
        # directedness of the componentwise order on sampled pairs
        elems = list(islice(scheme.all_elements(scheme.window[:2]), 16))
        directed = Verdict.passed("directed")
        for y, z in product(elems, repeat=2):
            bound = scheme.element(
                {
                    j: _upper(scheme, y.get(j, scheme.component.zero), z.get(j, scheme.component.zero))
                    for j in scheme.window[:2]
                }
            )
            if not (componentwise_leq(y, bound, scheme) and componentwise_leq(z, bound, scheme)):
                directed = Verdict.failed("directed", (y, z))
                break
        records.append(CheckRecord(f"s-construction/{name}/directed", "directed", directed))

        if scheme.phi["mul"]:
            result = find_nonassoc_witness("mul", scheme, budget=min(budget, 1000))
            if result.found:
                a, b, c, left, right = result.witness
                verdict = Verdict.passed(
                    "nonassoc-witness",
                    note=f"witness {a},{b},{c} differs at index {result.diff_index}",
                )
            else:
                verdict = Verdict.failed(
                    "nonassoc-witness", None, note=f"exhausted after {result.tested} triples"
                )
            records.append(
                CheckRecord(f"s-construction/{name}/nonassoc", "nonassoc-witness", verdict)
            )
        for side in ("left", "right"):
            if f"{side}-dist" not in scheme.component.flags:
                continue
            if scheme.psi["add"] or scheme.phi["add"]:
                continue
            pool = list(islice(scheme.all_elements(scheme.window[:2]), 32))
            triples = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(min(budget, 500))]
            verdict = check_transfer_distributivity(scheme, side, triples)
            records.append(
                CheckRecord(f"s-construction/{name}/transfer-{side}", verdict.law, verdict)
            )
        # lexicographic strict order on the same grid
        lex = Verdict.passed("lex-order")
        for y in elems:
            for z in elems:
                c1 = lex_compare(y, z, scheme)
                c2 = lex_compare(z, y, scheme)
                if (c1 == "eq") != (y == z) or {c1, c2} not in ({"eq"}, {"lt", "gt"}):
                    lex = Verdict.failed("lex-order", (y, z, c1, c2))
                    break
            if not lex.holds:
                break
        records.append(CheckRecord(f"s-construction/{name}/lex", "lex-order", lex))
    return records


def _upper(scheme, a, b):
    bounds = scheme.component.order.upper_bounds((a, b))
    if not bounds:
        raise OrdalgError("component order is not directed")
    return bounds[0]


def run_suite(ws: Workspace, suites, budget: int, seed: int):
    """Run the named suites in order, each a suite name or "all", and
    return (exit_code, records)."""
    if budget < 1:
        raise InputError(f"budget {budget} must be at least 1")
    chosen = [s for name in suites for s in (SUITES if name == "all" else (name,))]
    for s in chosen:
        if s not in SUITES:
            raise OrdalgError(f"unknown suite {s!r}")
    runners = {
        "laws": suite_laws,
        "idempotent": suite_idempotent,
        "monad": suite_monad,
        "convolution": suite_convolution,
        "s-construction": suite_sconstruction,
    }
    records: list[CheckRecord] = []
    for s in chosen:
        records.extend(runners[s](ws, budget, seed))
    exit_code = 0 if all(r.verdict.holds for r in records) else 1
    return exit_code, records
