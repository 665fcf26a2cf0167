"""Malformed workspace documents end in exit 2 with the offending line,
never in a traceback; a key that no builder reads is one of them."""
import pytest

from ordalg import convolution, workspace
from ordalg.errors import CapacityError
from ordalg.functionals import MONAD_LAWS
from ordalg.order import OrderRelation
from ordalg.structures import maxplus_chain
from ordalg.cli import main

SCHEME = """\
[structure b]
builtin = boolean

[scheme s]
structure = b
window = {window}
mul.phi = {phi}
{extra}
"""


# A structure and an action given by their tables: one key per row.
TABLES = """\
[structure K]
elements = 0 1
order = chain
zero = 0
one = 1
add.row.0 = 0 1
add.row.1 = 1 1
mul.row.0 = 0 0
mul.row.1 = 0 1

[action A]
structure = K
groupoid-elements = e
groupoid.row.e = e
unit = e
points = e
act.e = e
rho.e = 1
L = 0 1
"""

FUNCTION = "[structure b]\nbuiltin = boolean\n[space S]\nstructure = b\npoints = x\n[function f]\nspace = S\n"


def run_check(tmp_path, capsys, text):
    doc = tmp_path / "doc.workspace"
    doc.write_text(text, encoding="utf-8")
    code = main(["check", str(doc), "--suite", "laws"])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [
        (SCHEME.format(window="0 x", phi="1", extra=""), 6),
        (SCHEME.format(window="0", phi="1", extra=""), 6),
        (SCHEME.format(window="0 5", phi="one", extra=""), 7),
        (SCHEME.format(window="0 5", phi="1", extra="embed = 0:0 1"), 8),
        ("[structure m]\nbuiltin = max-plus-chain x\n", 2),
        ("[structure m]\nbuiltin = max-plus-chain\n", 2),
        ("[structure m]\nbuiltin =\n", 2),
        ("[structure b]\nbuiltin = boolean\n\n[suite default]\nbudget = lots\n", 5),
        ("[structure b]\nbuiltin = boolean\n[suite default]\nseed = 0.5\n", 4),
        (FUNCTION + "values = x0\n", 8),
        # a row of the wrong length is refused at its line, a missing row at its section's
        (TABLES.replace("add.row.1 = 1 1", "add.row.1 = 1"), 7),
        (TABLES.replace("add.row.1 = 1 1\n", ""), 1),
        (TABLES.replace("mul.row.0 = 0 0", "mul.row.0 = 0 0 1"), 8),
        (TABLES.replace("mul.row.0 = 0 0\n", ""), 1),
        (TABLES.replace("groupoid.row.e = e", "groupoid.row.e ="), 14),
        (TABLES.replace("groupoid.row.e = e\n", ""), 11),
        (TABLES.replace("act.e = e", "act.e = e e"), 17),
        (TABLES.replace("act.e = e\n", ""), 11),
        (TABLES.replace("rho.e = 1", "rho.e = 1 1"), 18),
        (TABLES.replace("rho.e = 1\n", ""), 11),
        # a value outside its carrier is refused where the table becomes codes, at its section's line
        (TABLES.replace("add.row.1 = 1 1", "add.row.1 = 1 x"), 1),
        (TABLES.replace("groupoid.row.e = e", "groupoid.row.e = x"), 11),
        (TABLES.replace("act.e = e", "act.e = x"), 11),
        (TABLES.replace("rho.e = 1", "rho.e = x"), 11),
    ],
    ids=[
        "window-token",
        "window-arity",
        "phi",
        "embed",
        "chain-size",
        "chain-no-size",
        "no-builtin",
        "budget",
        "seed",
        "values-token",
        "add-row-length",
        "add-row-missing",
        "mul-row-length",
        "mul-row-missing",
        "groupoid-row-length",
        "groupoid-row-missing",
        "act-length",
        "act-missing",
        "rho-length",
        "rho-missing",
        "add-row-value",
        "groupoid-row-value",
        "act-value",
        "rho-value",
    ],
)
def test_malformed_tokens_exit_2_with_the_line(tmp_path, capsys, text, line):
    code, err = run_check(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith(f"error: line {line}:")
    assert "Traceback" not in err


def test_repeated_section_is_rejected_at_the_second_header(tmp_path, capsys):
    text = "[structure b]\nbuiltin = boolean\n\n[structure b]\nbuiltin = trivial\n"
    code, err = run_check(tmp_path, capsys, text)
    assert code == 2
    assert err.startswith("error: line 4: repeated section [structure b]")


def test_same_name_in_another_kind_is_allowed(tmp_path, capsys):
    text = "[structure s]\nbuiltin = boolean\n\n[space s]\nstructure = s\npoints = x\n"
    code, err = run_check(tmp_path, capsys, text)
    assert (code, err) == (0, "")


def test_oversized_carrier_is_refused(tmp_path, capsys):
    with pytest.raises(CapacityError):
        maxplus_chain(1000)
    assert maxplus_chain(60).names[-1] == "59"
    code, err = run_check(tmp_path, capsys, "[structure m]\nbuiltin = max-plus-chain 1000\n")
    assert code == 2
    assert "exceeds the cap" in err


def test_long_chain_of_covers_is_refused_before_its_order_is_built(tmp_path, capsys, monkeypatch):
    def close(cls, elements, covers):
        raise AssertionError("the order was closed before the carrier cap")

    monkeypatch.setattr(OrderRelation, "from_covers", classmethod(close))
    elems = [f"e{i}" for i in range(1000)]
    covers = " ".join(f"{a}<={b}" for a, b in zip(elems, elems[1:]))
    text = f"[structure big]\nelements = {' '.join(elems)}\norder = {covers}\nzero = e0\none = e1\n"
    code, err = run_check(tmp_path, capsys, text)
    assert code == 2
    assert err == "error: line 1: [structure big]: big: carrier of 1000 elements exceeds the cap 64\n"


# One section of each kind; every key here is read by its builder.
EVERY_KIND = """\
[structure b]
builtin = boolean

[space S]
structure = b
points = x y

[function f]
space = S
values = x:0 y:1

[functional nu]
space = S
kind = dirac
point = x

[action A]
structure = b
groupoid-elements = e
groupoid.row.e = e
unit = e
points = e
act.e = e
rho.e = 1
L = 0 1

[scheme Sch]
structure = b
window = 0 3

[suite default]
run = laws
"""


def test_every_kind_parses(tmp_path, capsys):
    assert run_check(tmp_path, capsys, EVERY_KIND) == (0, "")


@pytest.mark.parametrize(
    "header, key",
    [
        ("[structure b]", "flags"),
        ("[space S]", "varient"),
        ("[space S]", "point-order"),
        ("[function f]", "value"),
        ("[functional nu]", "set"),
        ("[action A]", "groupoid.rows.e"),
        ("[scheme Sch]", "mul.psy"),
        ("[suite default]", "seeds"),
    ],
    ids=lambda v: v.strip("[]").split()[0] if v.startswith("[") else None,
)
def test_unknown_key_is_refused_at_its_line(tmp_path, capsys, header, key):
    lines = EVERY_KIND.splitlines()
    at = lines.index(header) + 1
    lines.insert(at, f"{key} = 1")
    code, err = run_check(tmp_path, capsys, "\n".join(lines) + "\n")
    kind, name = header.strip("[]").split()
    assert (code, err) == (2, f"error: line {at + 1}: [{kind} {name}]: unknown key {key!r}\n")


def test_unknown_action_kind_is_refused_at_its_line_before_any_check(tmp_path, capsys, monkeypatch):
    def check(*args):
        raise AssertionError("a check ran before the kind was refused")

    monkeypatch.setattr(convolution, "check_action", check)
    unknown = {"kind = sum": "unknown kind 'sum'", "regime = homogeneous": "unknown regime 'homogeneous'"}
    for entry, message in unknown.items():
        lines = EVERY_KIND.splitlines()
        at = lines.index("[action A]") + 1
        lines.insert(at, entry)
        code, err = run_check(tmp_path, capsys, "\n".join(lines) + "\n")
        assert (code, err) == (2, f"error: line {at + 1}: [action A]: {message}\n")


COMBO = "\n[functional c]\nspace = S\nkind = combo\ncoeffs = 1\nparts = nu\nside = left\n"

# the keys of bool given by its tables, to stand for `builtin = boolean`
BOOL_ROWS = (
    "elements = 0 1\norder = chain\nzero = 0\none = 1\n"
    "add.row.0 = 0 1\nadd.row.1 = 1 1\nmul.row.0 = 0 0\nmul.row.1 = 0 1"
)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("builtin = boolean", "builtin = bool", "line 2: [structure b]: unknown builtin structure 'bool'"),
        (
            "builtin = boolean",
            "builtin = max-plus-chain 1",
            "line 2: [structure b]: maxplus chain needs at least 2 elements",
        ),
        (
            "builtin = boolean",
            "builtin = boolean 7",
            "line 2: [structure b]: builtin 'boolean' takes no arguments, got 1",
        ),
        (
            "builtin = boolean",
            "builtin = max-plus-chain 3 9",
            "line 2: [structure b]: builtin 'max-plus-chain' takes one argument, got 2",
        ),
        (
            "builtin = boolean",
            "builtin = right-dist x",
            "line 2: [structure b]: builtin 'right-dist' takes no arguments, got 1",
        ),
        (
            "builtin = boolean",
            "builtin = trivial 2",
            "line 2: [structure b]: builtin 'trivial' takes no arguments, got 1",
        ),
        ("points = x y", "points = x y\nvariant = up", "line 7: [space S]: unknown variant 'up'"),
        ("kind = dirac", "kind = delta", "line 14: [functional nu]: unknown functional kind 'delta'"),
        ("side = left", "side = middle", "line 39: [functional c]: unknown side 'middle'"),
        ("run = laws", "run = laws monads", "line 32: [suite default]: unknown suite 'monads'"),
        ("run = laws", "run = laws\nbudget = 0", "line 33: [suite default]: budget 0 must be at least 1"),
        ("[structure b]", "[structure]", "line 1: section header must be [kind name]"),
        ("[suite default]", "[foo x]", "line 31: unknown section kind 'foo'"),
        ("builtin = boolean", "elements = 0 1\norder = 0<1", "line 3: [structure b]: order pair '0<1' must look like a<=b"),
        (
            "builtin = boolean",
            "builtin = max-plus-chain x",
            "line 2: [structure b]: max-plus-chain size must be an integer, got 'x'",
        ),
        ("window = 0 3", "window = 0 x", "line 29: [scheme Sch]: window must be an integer, got 'x'"),
        ("window = 0 3", "window = 0", "line 29: [scheme Sch]: window must be two integers `lo hi`"),
        ("window = 0 3", "window = 0 3\nadd.psi = one", "line 30: [scheme Sch]: add.psi must be an integer, got 'one'"),
        ("window = 0 3", "window = 0 3\nmul.phi = 1.5", "line 30: [scheme Sch]: mul.phi must be an integer, got '1.5'"),
        ("run = laws", "run = laws\nseed = x", "line 33: [suite default]: seed must be an integer, got 'x'"),
        ("run = laws", "run = laws\nbudget = lots", "line 33: [suite default]: budget must be an integer, got 'lots'"),
        # a name refused where its section's object is built is reported at the section's line
        ("builtin = boolean", "elements = 0 0\norder = chain", "line 1: [structure b]: repeated element in 0 0"),
        ("builtin = boolean", BOOL_ROWS.replace("one = 1", "one = z"), "line 1: [structure b]: b: one 'z' not in carrier"),
        (
            "builtin = boolean",
            BOOL_ROWS.replace("add.row.0 = 0 1", "add.row.0 = 1 1"),
            "line 1: [structure b]: b: neutral law fails at ('add-neutral', '0')",
        ),
        ("points = x y", "points =", "line 4: [space S]: point set must be non-empty"),
        ("point = x", "point = zz", "line 12: [functional nu]: Dirac point 'zz' not in carrier"),
        (
            "kind = dirac\npoint = x",
            "kind = sup_over\nset = x zz",
            "line 12: [functional nu]: SupOver point 'zz' not in carrier",
        ),
        (
            "coeffs = 1\nparts = nu",
            "coeffs = 1 zz\nparts = nu nu",
            "line 37: [functional c]: coefficient 'zz' not in carrier",
        ),
        (
            "coeffs = 1\nparts = nu",
            "coeffs = 0 1\nparts = nu nu",
            "line 37: [functional c]: coefficients must be strictly positive",
        ),
        # bool given by its tables declares no flags, so it is not known to distribute
        ("builtin = boolean", BOOL_ROWS, "line 44: [functional c]: weighted combinations need a distributive K"),
        ("window = 0 3", "window = 0 3\nembed = 0:0", "line 27: [scheme Sch]: homomorphism map missing element '1'"),
    ],
    ids=[
        "builtin",
        "builtin-refused",
        "boolean-token",
        "chain-tokens",
        "right-dist-token",
        "trivial-token",
        "variant",
        "functional-kind",
        "combo-side",
        "suite-run",
        "suite-budget",
        "header-one-word",
        "section-kind",
        "order-pair",
        "chain-size-token",
        "window-token",
        "window-arity",
        "psi-token",
        "phi-token",
        "seed-token",
        "budget-token",
        "elements-repeat",
        "one",
        "add-zero",
        "no-points",
        "dirac-point",
        "sup-set",
        "combo-coeffs",
        "combo-zero-coeff",
        "combo-not-distributive",
        "embed-partial",
    ],
)
def test_an_unknown_value_exits_2_at_its_line_or_its_section(tmp_path, capsys, old, new, message):
    # a value refused by the parser or by what it builds is reported at the
    # key's line, with its section's prefix, before any check runs
    text = EVERY_KIND + COMBO
    assert run_check(tmp_path, capsys, text) == (0, "")
    assert run_check(tmp_path, capsys, text.replace(old, new, 1)) == (2, f"error: {message}\n")


@pytest.mark.parametrize("kind", ["add", "join", "meet"])
def test_every_action_kind_parses(tmp_path, capsys, kind):
    text = EVERY_KIND.replace("[action A]\n", f"[action A]\nkind = {kind}\n")
    assert run_check(tmp_path, capsys, text) == (0, "")


def test_a_cycle_of_order_covers_is_refused_at_its_line(tmp_path, capsys):
    # a <= b and b <= a would pass as an order whose join depends on the
    # order of its arguments
    text = (
        "[structure K]\nelements = 0 a b\norder = 0<=a 0<=b a<=b b<=a\nzero = 0\none = a\n"
        "add.row.0 = 0 a b\nadd.row.a = a a b\nadd.row.b = b b b\n"
        "mul.row.0 = 0 0 0\nmul.row.a = 0 a b\nmul.row.b = 0 b b\n"
    )
    code, err = run_check(tmp_path, capsys, text)
    assert (code, err) == (2, "error: line 3: [structure K]: order has a cycle: a <= b and b <= a\n")
    acyclic = text.replace(" b<=a", "")
    assert run_check(tmp_path, capsys, acyclic)[0] in (0, 1)


@pytest.mark.parametrize(
    "suite, defaults",
    [
        ("", {"run": ["all"], "budget": 20000, "seed": 0}),
        ("[suite default]\nbudget = 7\n", {"run": ["all"], "budget": 7, "seed": 0}),
        ("[suite default]\nrun = laws monad\nseed = 3\n", {"run": ["laws", "monad"], "budget": 20000, "seed": 3}),
    ],
    ids=["no-section", "budget-only", "run-and-seed"],
)
def test_a_suite_section_overrides_the_defaults_it_names(suite, defaults):
    ws = workspace.parse("[structure b]\nbuiltin = boolean\n\n" + suite)
    assert ws.suite_defaults == defaults


# EVERY_KIND with a structure given by its tables, whose rows are keys.
WITH_TABLES = EVERY_KIND + """
[structure K]
elements = 0 1
order = chain
zero = 0
one = 1
add.row.0 = 0 1
add.row.1 = 1 1
mul.row.0 = 0 0
mul.row.1 = 0 1
"""


def with_line_after(line: str, new: str) -> tuple[str, int]:
    """WITH_TABLES with `new` put right after its first `line`, and the
    new line's number."""
    lines = WITH_TABLES.splitlines()
    at = lines.index(line) + 1
    lines.insert(at, new)
    return "\n".join(lines) + "\n", at + 1


@pytest.mark.parametrize(
    "line, new, section",
    [
        ("window = 0 3", "window = 0 2", "[scheme Sch]"),
        ("mul.row.1 = 0 1", "mul.row.1 = 0 0", "[structure K]"),
        ("act.e = e", "act.e = e", "[action A]"),
        ("run = laws", "run = laws monad", "[suite default]"),
    ],
    ids=["window", "mul-row", "act-row", "run"],
)
def test_a_repeated_key_is_refused_at_its_second_line(tmp_path, capsys, line, new, section):
    text, at = with_line_after(line, new)
    key = new.split(" = ")[0]
    assert run_check(tmp_path, capsys, text) == (2, f"error: line {at}: {section}: repeated key {key!r}\n")


@pytest.mark.parametrize(
    "line, new, section",
    [
        ("add.row.1 = 1 1", "add.row.x = 0 1", "[structure K]"),
        ("mul.row.1 = 0 1", "mul.row.x = 0 1", "[structure K]"),
        ("groupoid.row.e = e", "groupoid.row.x = e", "[action A]"),
        ("act.e = e", "act.g = e", "[action A]"),
        ("rho.e = 1", "rho.g = 1", "[action A]"),
    ],
    ids=["add-row", "mul-row", "groupoid-row", "act", "rho"],
)
def test_a_row_key_outside_its_carrier_is_refused_at_its_line(tmp_path, capsys, line, new, section):
    text, at = with_line_after(line, new)
    key = new.split(" = ")[0]
    name = key.rsplit(".", 1)[1]
    message = f"error: line {at}: {section}: {key!r} names {name!r}, outside its carrier\n"
    assert run_check(tmp_path, capsys, text) == (2, message)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("points = x y", "points = x y x", "line 4: [space S]: repeated point in x y x"),
        ("values = x:0 y:1", "values = x:0 y:1 x:1", "line 10: [function f]: point 'x' repeated in the function values"),
        ("values = x:0 y:1", "values = x:0 y:1 z:1", "line 10: [function f]: function points differ from the space's at ['z']"),
    ],
    ids=["space", "function-repeat", "function-outside"],
)
def test_a_repeated_or_foreign_point_is_refused(tmp_path, capsys, old, new, message):
    text = EVERY_KIND.replace(old, new)
    assert run_check(tmp_path, capsys, text) == (2, f"error: {message}\n")


def test_a_combo_of_parts_on_another_space_is_refused_at_its_parts_line(tmp_path, capsys):
    # built, it would be recorded as a functional on the parts' space S, and
    # `eval` would refuse every function of its declared space T
    text = EVERY_KIND + COMBO.replace("space = S", "space = T") + "\n[space T]\nstructure = b\npoints = y1\n"
    refused = (2, "error: line 38: [functional c]: part 'nu' is not on space 'T'\n")
    assert run_check(tmp_path, capsys, text) == refused
    # a space with the same points is still another space
    assert run_check(tmp_path, capsys, text.replace("points = y1", "points = x y")) == refused


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("L = 0 1", "L = 0 1 1", "line 25: [action A]: repeated element in L = 0 1 1"),
        ("window = 0 3", "window = 0 3\nembed = 0:0 1:0 1:1", "line 30: [scheme Sch]: element '1' repeated in the embed"),
    ],
    ids=["action-L", "scheme-embed"],
)
def test_a_repeated_entry_is_refused_at_its_line(tmp_path, capsys, old, new, message):
    # once read into a set or a dict, the repeat would be lost without a word
    assert run_check(tmp_path, capsys, EVERY_KIND.replace(old, new)) == (2, f"error: {message}\n")
    once = new.replace(" 1 1", " 1").replace(" 1:0 1:1", " 1:1")
    assert run_check(tmp_path, capsys, EVERY_KIND.replace(old, once)) == (0, "")


@pytest.mark.parametrize(
    "text, fixed, message",
    [
        (
            "[structure t]\nbuiltin = trivial\n\n[scheme s]\nstructure = t\nwindow = 0 3\nmul.phi = 1\n",
            ("mul.phi = 1", "mul.phi = 0"),
            "line 7: [scheme s]: mul.phi 1 needs a component of at least two elements",
        ),
        (
            TABLES.replace("points = e\nact.e = e", "points = x\nact.e = x"),
            ("points = x\nact.e = x", "points = e\nact.e = e"),
            "line 16: [action A]: points must be the groupoid elements e, in order: convolution acts on X = G itself",
        ),
    ],
    ids=["scheme-of-one-element", "action-points"],
)
def test_a_document_that_its_suite_cannot_run_is_refused_at_its_key(tmp_path, capsys, text, fixed, message):
    # the s-construction and convolution suites would refuse these without a line; the laws suite runs neither
    assert run_check(tmp_path, capsys, text) == (2, f"error: {message}\n")
    assert run_check(tmp_path, capsys, text.replace(*fixed)) == (0, "")


@pytest.mark.parametrize(
    "text, suite, code, records",
    [
        (
            # bool on two monotone points has 3 functions and 2**3 tables to scan
            EVERY_KIND.replace("run = laws", "run = laws\nbudget = 7")
            .replace("points = x y", "points = x y\nvariant = +"),
            "monad",
            0,
            ["monad/S/skipped\tmonad\tpass\t-\tspace too large for the budget; skipped"],
        ),
        (
            # on a chain the default family is decided by a theorem, which reads no budget
            EVERY_KIND.replace("run = laws", "run = laws\nbudget = 10"),
            "monad",
            0,
            [f"monad/S/{law}\t{law}\tpass\t-" for law in MONAD_LAWS],
        ),
        (
            TABLES.replace("[action A]\n", "[action A]\nkind = add\n"),
            "convolution",
            1,
            [
                "convolution/A/action\taction\tpass\t-",
                "convolution/A/kind\tkind-add\tfail\t-\tkind add needs commutative associative addition in K",
            ],
        ),
    ],
    ids=["monad-over-budget", "monad-on-a-chain-past-the-budget", "kind-add-without-comm-add"],
)
def test_a_check_that_cannot_run_is_a_record(tmp_path, capsys, text, suite, code, records):
    doc = tmp_path / "doc.workspace"
    doc.write_text(text, encoding="utf-8")
    got = main(["check", str(doc), "--suite", suite, "--format", "records"])
    out, err = capsys.readouterr()
    assert (got, out.splitlines(), err) == (code, records, "")
