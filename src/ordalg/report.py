"""Verdicts, witnesses and per-axiom reports.

Every checker in the library returns a Verdict rather than raising on a
counterexample: a failed law is a result, not an error.  Witnesses are
plain tuples of the values involved, ordered the way the law reads, so a
caller can re-evaluate them.
"""
from __future__ import annotations


class Verdict:
    def __init__(self, holds: bool, law: str, witness: tuple | None = None, note: str = ""):
        self.holds = holds
        self.law = law
        self.witness = witness
        self.note = note

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = (self.holds, self.law, self.witness, self.note)
        return fields == (other.holds, other.law, other.witness, other.note)

    @classmethod
    def passed(cls, law: str, note: str = "") -> "Verdict":
        return cls(True, law, None, note)

    @classmethod
    def failed(cls, law: str, witness: tuple, note: str = "") -> "Verdict":
        return cls(False, law, witness, note)

    def __bool__(self) -> bool:
        return self.holds


def first_failure(law: str, witnesses) -> Verdict:
    """The verdict of `law` from the witnesses of its failing cases in
    scan order: failed at the first, passed when there is none.  The
    witnesses are read lazily, so the scan stops at its first failure."""
    for witness in witnesses:
        return Verdict.failed(law, witness)
    return Verdict.passed(law)


def fmt_witness(witness: tuple | None) -> str:
    """Compact single-line rendering used by the machine report format."""
    if witness is None:
        return "-"
    return "(" + ",".join(_fmt_item(w) for w in witness) + ")"


def _fmt_item(item) -> str:
    if isinstance(item, tuple):
        return fmt_witness(item)
    if isinstance(item, frozenset) or isinstance(item, set):
        return "{" + ",".join(sorted(str(x) for x in item)) + "}"
    return str(item)


class AxiomReport:
    """Per-axiom verdicts for one functional (or one structure).

    `sampled` is set when any grid was cut off by a budget; a sampled
    report is never silently treated as a full pass.
    """

    def __init__(self, verdicts: dict[str, Verdict] | None = None, sampled: bool = False):
        self.verdicts = {} if verdicts is None else verdicts
        self.sampled = sampled

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.verdicts, self.sampled) == (other.verdicts, other.sampled)

    def add(self, verdict: Verdict) -> None:
        self.verdicts[verdict.law] = verdict

    def __getitem__(self, law: str) -> Verdict:
        return self.verdicts[law]
