"""Check suites over a parsed workspace.

Each suite yields CheckRecords in a deterministic order (entities sorted
by name, checks in a fixed sequence), so a run with the same document,
budget and seed produces byte-identical machine reports.
"""
from __future__ import annotations

from .errors import InputError, OrdalgError, PreconditionError
from .functionals import check_idempotent, check_weak_properties, monad_check
from .order import axiom_failure, check_order_axioms
from .report import Verdict, fmt_witness
from .structures import check_law
from .workspace import SUITES, Workspace

CORE_LAWS = ("neutral", "absorb", "assoc-add", "assoc-mul", "comm-add", "comm-mul", "left-dist", "right-dist")


class CheckRecord:
    """One line of a report: a check's id and its verdict, whose law the record names."""

    def __init__(self, check_id: str, verdict: Verdict):
        self.check_id = check_id
        self.verdict = verdict

    def as_record_line(self) -> str:
        status = "pass" if self.verdict.holds else "fail"
        parts = [self.check_id, self.verdict.law, status, fmt_witness(self.verdict.witness)]
        if self.verdict.note:
            parts.append(self.verdict.note)
        return "\t".join(parts)

    def as_text(self) -> str:
        mark = "PASS" if self.verdict.holds else "FAIL"
        line = f"[{mark}] {self.check_id} ({self.verdict.law})"
        if self.verdict.witness is not None:
            line += f"\n       witness: {fmt_witness(self.verdict.witness)}"
        if self.verdict.note:
            line += f"\n       note: {self.verdict.note}"
        return line


def suite_laws(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.structures):
        s = ws.structures[name]
        records.append(CheckRecord(f"laws/{name}/order", check_order_axioms(s.order, "directed")))
        for law in CORE_LAWS:
            declared = law in s.flags or law in ("neutral", "absorb")
            verdict = check_law(s, law)
            if not declared and not verdict.holds:
                # undeclared laws may legitimately fail; report as informational pass
                verdict = Verdict.passed(law, note=f"not declared; first exception {fmt_witness(verdict.witness)}")
            records.append(CheckRecord(f"laws/{name}/{law}", verdict))
    return records


def suite_idempotent(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.functionals):
        nu = ws.functionals[name]
        rep = check_idempotent(nu, budget=budget, seed=seed)
        records.extend(CheckRecord(f"idempotent/{name}/{v.law}", v) for v in rep.verdicts.values())
        weak = check_weak_properties(nu, budget=budget, seed=seed)
        records.extend(CheckRecord(f"weak/{name}/{v.law}", v) for v in weak.verdicts.values())
    return records


def suite_monad(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    records = []
    for name in sorted(ws.spaces):
        space = ws.spaces[name]
        if not space.over_a_chain and len(space.K.elements) ** len(space.functions()) > budget:
            skipped = Verdict.passed("monad", note="space too large for the budget; skipped")
            records.append(CheckRecord(f"monad/{name}/skipped", skipped))
            continue
        records.extend(CheckRecord(f"monad/{name}/{v.law}", v) for v in monad_check(space).verdicts.values())
    return records


def suite_convolution(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    # imported here, as the workspace's action builder does, so that only a document with actions loads it
    from .convolution import (
        _require_unit_cocycle,
        check_action,
        check_ideal,
        check_quasiring,
        invariant_subfamily,
        kind_algebra,
        support_bounds,
    )

    records = []
    for name in sorted(ws.actions):
        sys = ws.actions[name]
        kind = ws.kinds[name]
        records.append(CheckRecord(f"convolution/{name}/action", check_action(sys)))
        _require_unit_cocycle(sys)
        try:
            alg = kind_algebra(sys, kind, budget)
        except PreconditionError as exc:
            refused = Verdict.failed(f"kind-{kind}", None, note=str(exc))
            records.append(CheckRecord(f"convolution/{name}/kind", refused))
            continue
        rep = check_quasiring(alg)
        H = invariant_subfamily(alg)
        for report in (rep, check_ideal(H, alg)):
            records.extend(CheckRecord(f"convolution/{name}/{v.law}", v) for v in report.verdicts.values())
        for i, nu in enumerate(H):
            records.append(CheckRecord(f"convolution/{name}/support-bound-{i}", support_bounds(nu, sys)))
    return records


def suite_sconstruction(ws: Workspace, budget: int, seed: int) -> list[CheckRecord]:
    """The records of each scheme's shifted product.

    The product is built index by index from one component K, so its
    order laws and the transfer of distributivity hold exactly when K's
    laws do, and `scheme_law` reads them off verdicts K has already
    decided; only the non-associativity search samples elements.

    - directed: zero is the least value, so two elements have a common
      upper bound exactly when their values at every index do.  The
      componentwise order is directed exactly when K's order is, and a
      pair a, b of K with no upper bound gives the monomials {lo: a},
      {lo: b}, lo the first index of the window.
    - lex: the order by the least differing index is strict and total
      exactly when K's order is linear; an incomparable pair a, b gives
      the same monomials.
    - transfer-left/right: with add unshifted, t^r is an
      add-homomorphism, so at each index j the product a(b+c) reads
      a_j t^r(b_{j+r} + c_{j+r}) = a_j (t^r b_{j+r} + t^r c_{j+r}), and
      the side's law holds in the product exactly when it holds in K.
      A failing triple (a, b, c) of K lifts to ({j: a}, {j+r: t^-r b},
      {j+r: t^-r c}), the shifted operand moved up by r, at j = lo + s,
      the first index whose image psi(j) stays in the window.  When the
      window has at most s + r indices no product that stays in it is
      nonzero, and the law holds there.  A side is recorded when K
      declares it and add is unshifted.
    """
    from .sproduct import find_nonassoc_witness  # as in suite_convolution

    records = []
    for name in sorted(ws.schemes):
        scheme = ws.schemes[name]
        records.append(_scheme_record(name, scheme, "directed"))
        if scheme.phi["mul"]:
            result = find_nonassoc_witness(scheme, min(budget, 1000))
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
            records.append(CheckRecord(f"s-construction/{name}/nonassoc", verdict))
        if not (scheme.psi["add"] or scheme.phi["add"]):
            for side in ("left", "right"):
                if f"{side}-dist" in scheme.component.flags:
                    records.append(_scheme_record(name, scheme, f"transfer-{side}"))
        records.append(_scheme_record(name, scheme, "lex"))
    return records


def _scheme_record(name: str, scheme: IndexScheme, law: str) -> CheckRecord:
    return CheckRecord(f"s-construction/{name}/{law}", scheme_law(scheme, law))


def scheme_law(scheme: IndexScheme, law: str) -> Verdict:
    """Decide directed, lex, transfer-left or transfer-right for the
    shifted product from the component's laws, as `suite_sconstruction`
    explains; a transfer law is asked for only when add is unshifted."""
    K, lo = scheme.component, scheme.window.start
    if law in ("directed", "lex"):
        mode, recorded = ("directed", "directed") if law == "directed" else ("linear", "lex-order")
        witness = axiom_failure(K.order, mode)
        if witness is None:
            return Verdict.passed(recorded)
        # the witness is the axiom's tag followed by its component values
        return Verdict.failed(recorded, tuple(scheme.element({lo: x}) for x in witness[1:]))
    side = law.split("-")[1]
    verdict = check_law(K, f"{side}-dist")
    s, r = scheme.psi["mul"], scheme.phi["mul"]
    j = lo + s
    if verdict or j + r >= scheme.window.stop:
        return Verdict.passed(f"{law}-dist")
    a, b, c, lhs, rhs = (K.code[x] for x in verdict.witness)
    back = {v: x for x, v in enumerate(scheme.down["mul"])}  # t^-r: t^r permutes K

    def at(i, x):
        return scheme.element({i: x})

    if side == "left":
        lifted = (at(j, a), at(j + r, back[b]), at(j + r, back[c]))
    else:
        lifted = (at(j + r, back[a]), at(j, b), at(j, c))
    return Verdict.failed(f"{law}-dist", lifted + (at(lo, lhs), at(lo, rhs)))


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
