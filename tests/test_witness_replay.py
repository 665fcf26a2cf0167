"""Each failing join or meet record's witness, and each exception to an
undeclared structure law, replayed without a checker.

`ordalg witness --check <id>` prints a record's witness (f, g, lhs, rhs):
lhs is nu(f v g), or nu(f ^ g) for meet, and rhs is nu(f) v nu(g), or
nu(f) ^ nu(g).  This module parses the two function literals, evaluates
nu through its public `value` (and, on the demo, through `ordalg eval`)
and takes the pointwise max or min itself.  The structures here are
max-plus chains, ordered as integers.  A `laws` record of a law that a
structure does not declare notes its first exception, whose two sides
are evaluated again by element names through the structure's tables.  A
witness that does not reproduce its failure fails the test (Claessen and
Hughes, "QuickCheck", ICFP 2000).
"""
import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from ordalg.cli import main
from ordalg.workspace import parse

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

DOCUMENTS = {
    "demo": lambda: (ROOT / "docs" / "demo.workspace").read_text(encoding="utf-8"),
    "symbolic": lambda: workloads.symbolic(0),
}

WITNESS = re.compile(r"^       witness: \((\{[^}]*\}),(\{[^}]*\}),(\w+),(\w+)\)$", re.M)
EXCEPTION = re.compile(r"^laws/(\w+)/([\w-]+)\t.*; first exception \(([^)]*)\)$", re.M)


def cli(*argv):
    """main's exit code and what it printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def function_literal(text):
    """{x1: 0, x2: 1} as {"x1": "0", "x2": "1"}."""
    return dict((part.strip() for part in entry.split(":")) for entry in text[1:-1].split(","))


def literal(values):
    return "{" + ", ".join(f"{x}: {v}" for x, v in values.items()) + "}"


@pytest.mark.parametrize(
    "document, check_id",
    [
        ("demo", "idempotent/nu/meet"),
        ("demo", "idempotent/cmb/meet"),
        ("symbolic", "idempotent/cl/meet"),
        ("symbolic", "idempotent/cr/join"),
        ("symbolic", "idempotent/cr/meet"),
        ("symbolic", "idempotent/i2/join"),
        ("symbolic", "idempotent/s2/meet"),
        ("symbolic", "idempotent/s3/meet"),
    ],
)
def test_a_failing_record_replays_through_value(tmp_path, document, check_id):
    text = DOCUMENTS[document]()
    doc = tmp_path / f"{document}.workspace"
    doc.write_text(text, encoding="utf-8")
    code, out = cli("witness", doc, "--check", check_id)
    assert code == 1
    f_text, g_text, lhs, rhs = WITNESS.search(out).groups()

    _, name, law = check_id.split("/")
    pick = max if law == "join" else min
    f, g = function_literal(f_text), function_literal(g_text)
    fg = {x: str(pick(int(f[x]), int(g[x]))) for x in f}
    nu = parse(text).functionals[name]
    names = nu.space.K.names
    nu_f, nu_g, nu_fg = (names[nu.value(nu.space.function(h))] for h in (f, g, fg))

    assert (nu_fg, str(pick(int(nu_f), int(nu_g)))) == (lhs, rhs)
    assert lhs != rhs
    if document == "demo":
        for h, value in ((f, nu_f), (g, nu_g), (fg, nu_fg)):
            assert cli("eval", doc, "--expr", f"{name}({literal(h)})") == (0, f"{value}\n")


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_each_structure_law_exception_replays_through_the_tables(tmp_path, document):
    text = DOCUMENTS[document]()
    doc = tmp_path / f"{document}.workspace"
    doc.write_text(text, encoding="utf-8")
    code, out = cli("check", doc, "--suite", "laws", "--format", "records")
    assert code == 0
    notes = {(name, law): tuple(witness.split(",")) for name, law, witness in EXCEPTION.findall(out)}
    assert set(notes) == {("rd", "comm-mul"), ("rd", "left-dist")}

    K = parse(text).structures["rd"]

    def add(a, b):
        return K.names[K.add[K.code[a]][K.code[b]]]

    def mul(a, b):
        return K.names[K.mul[K.code[a]][K.code[b]]]

    a, b, ab, ba = notes["rd", "comm-mul"]
    assert (mul(a, b), mul(b, a)) == (ab, ba) and ab != ba
    a, b, c, lhs, rhs = notes["rd", "left-dist"]
    assert (mul(a, add(b, c)), add(mul(a, b), mul(a, c))) == (lhs, rhs) and lhs != rhs
