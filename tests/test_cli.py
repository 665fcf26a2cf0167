"""The command line: records of the demo workspace, and the exit codes of
`check`, `eval` and `witness` (0 holds, 1 counterexample, 2 input error)."""
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordalg.cli import main
from ordalg.functionals import MONAD_LAWS

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "docs" / "demo.workspace"
GOLDEN = ROOT / "perfbench" / "golden" / "demo.records"
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", ["demo", *sorted(workloads.GENERATORS)])
def test_demo_records_match_the_golden_file(tmp_path, capsys, name):
    """The records of the demo and of each benchmark workload at seed 0,
    byte for byte, with the exit code the golden index gives."""
    doc = DEMO
    if name != "demo":
        doc = tmp_path / f"{name}.workspace"
        doc.write_text(workloads.GENERATORS[name](0), encoding="utf-8")
    golden = GOLDEN.parent
    exit_code = json.loads((golden / "golden.json").read_text(encoding="utf-8"))[name]["exit"]
    code, out, err = run(capsys, "check", doc, "--format", "records")
    assert out.encode("utf-8") == (golden / f"{name}.records").read_bytes()
    assert (code, err) == (exit_code, "")


@pytest.mark.parametrize(
    "expr, code, out",
    [
        ("nu(f)", 0, "1\n"),
        ("mu({x1: 1, x2: 0})", 0, "0\n"),
        ("nu({x1: 1, x2: 0})", 0, "1\n"),
    ],
)
def test_eval_prints_the_value(capsys, expr, code, out):
    assert run(capsys, "eval", DEMO, "--expr", expr) == (code, out, "")


@pytest.mark.parametrize(
    "argv", [["check"], ["eval", "--expr", "nu(f)"], ["witness", "--check", "laws/bool/order"]], ids=lambda a: a[0]
)
def test_a_document_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    doc = tmp_path / "latin.workspace"
    doc.write_bytes(b"\xff\xfebad")
    code, out, err = run(capsys, argv[0], doc, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {doc} is not UTF-8 text: ")


@pytest.mark.parametrize("expr", ["ghost(f)", "nu(g)", "nu f", "nu({x1: 1})", "nu({x1: 7, x2: 0})", "nu({x1 0, x2: 1})"])
def test_eval_refuses_bad_expressions(capsys, expr):
    code, out, err = run(capsys, "eval", DEMO, "--expr", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "expr, message",
    [
        ("nu({x1: 0, x2: 1, x1: 1})", "point 'x1' repeated in the function literal"),
        ("nu({x1: 0, x2: 1, bogus: 1})", "function points differ from the space's at ['bogus']"),
    ],
)
def test_eval_refuses_a_literal_that_repeats_or_adds_a_point(capsys, expr, message):
    assert run(capsys, "eval", DEMO, "--expr", expr) == (2, "", f"error: {message}\n")


# The demo on one structure whose element names are bool's, swapped: the
# name "1" is the zero and "0" the unit.  Every builtin names its elements
# by their position in the carrier, so only such a document shows a
# position printed where a name belongs.
MIRRORED = ROOT / "tests" / "mirrored.workspace"
MIRRORED_RECORDS = "".join(
    [
        'laws/nb/order\torder-directed\tpass\t-\n',
        'laws/nb/neutral\tneutral\tpass\t-\n',
        'laws/nb/absorb\tabsorb\tpass\t-\n',
        'laws/nb/assoc-add\tassoc-add\tpass\t-\n',
        'laws/nb/assoc-mul\tassoc-mul\tpass\t-\n',
        'laws/nb/comm-add\tcomm-add\tpass\t-\n',
        'laws/nb/comm-mul\tcomm-mul\tpass\t-\n',
        'laws/nb/left-dist\tleft-dist\tpass\t-\n',
        'laws/nb/right-dist\tright-dist\tpass\t-\n',
        'idempotent/cmb/normalized\tnormalized\tpass\t-\n',
        'idempotent/cmb/left-shift\tleft-shift\tpass\t-\n',
        'idempotent/cmb/right-shift\tright-shift\tpass\t-\n',
        'idempotent/cmb/join\tjoin\tpass\t-\n',
        'idempotent/cmb/meet\tmeet\tfail\t({x1: 1, x2: 0},{x1: 0, x2: 1},1,0)\n',
        'weak/cmb/weakly-additive\tweakly-additive\tpass\t-\n',
        'weak/cmb/order-preserving\torder-preserving\tpass\t-\n',
        'weak/cmb/non-expanding\tnon-expanding\tpass\t-\n',
        'weak/cmb/weak-implies-nonexpanding\tweak-implies-nonexpanding\tpass\t-\n',
        'idempotent/mu/normalized\tnormalized\tpass\t-\n',
        'idempotent/mu/left-shift\tleft-shift\tpass\t-\n',
        'idempotent/mu/right-shift\tright-shift\tpass\t-\n',
        'idempotent/mu/join\tjoin\tpass\t-\n',
        'idempotent/mu/meet\tmeet\tpass\t-\n',
        'weak/mu/weakly-additive\tweakly-additive\tpass\t-\n',
        'weak/mu/order-preserving\torder-preserving\tpass\t-\n',
        'weak/mu/non-expanding\tnon-expanding\tpass\t-\n',
        'weak/mu/weak-implies-nonexpanding\tweak-implies-nonexpanding\tpass\t-\n',
        'idempotent/nu/normalized\tnormalized\tpass\t-\n',
        'idempotent/nu/left-shift\tleft-shift\tpass\t-\n',
        'idempotent/nu/right-shift\tright-shift\tpass\t-\n',
        'idempotent/nu/join\tjoin\tpass\t-\n',
        'idempotent/nu/meet\tmeet\tfail\t({x1: 1, x2: 0},{x1: 0, x2: 1},1,0)\n',
        'weak/nu/weakly-additive\tweakly-additive\tpass\t-\n',
        'weak/nu/order-preserving\torder-preserving\tpass\t-\n',
        'weak/nu/non-expanding\tnon-expanding\tpass\t-\n',
        'weak/nu/weak-implies-nonexpanding\tweak-implies-nonexpanding\tpass\t-\n',
        'monad/S/family-hosts-units\tfamily-hosts-units\tpass\t-\n',
        'monad/S/unit-eta-outer\tunit-eta-outer\tpass\t-\n',
        'monad/S/unit-eta-inner\tunit-eta-inner\tpass\t-\n',
        'monad/S/bar-constant\tbar-constant\tpass\t-\n',
        'monad/S/bar-join\tbar-join\tpass\t-\n',
        'monad/S/assoc\tassoc\tpass\t-\n',
        'convolution/A/action\taction\tpass\t-\n',
        'convolution/A/closure-add\tclosure-add\tpass\t-\n',
        'convolution/A/closure-conv\tclosure-conv\tpass\t-\n',
        'convolution/A/conv-right-dist\tconv-right-dist\tpass\t-\n',
        'convolution/A/conv-left-dist\tconv-left-dist\tpass\t-\n',
        'convolution/A/unit-neutral\tunit-neutral\tpass\t-\n',
        'convolution/A/ideal-add\tideal-add\tpass\t-\n',
        'convolution/A/ideal-left\tideal-left\tpass\t-\n',
        'convolution/A/ideal-right\tideal-right\tpass\t-\n',
        'convolution/A/support-bound-0\tsupport-bound\tpass\t-\n',
        'convolution/A/support-bound-1\tsupport-bound\tpass\t-\n',
        'convolution/A/support-bound-2\tsupport-bound\tpass\t-\tsupport degenerate\n',
        's-construction/Sch/directed\tdirected\tpass\t-\n',
        's-construction/Sch/nonassoc\tnonassoc-witness\tpass\t-\twitness {1: 0},{2: 0},{2: 0} differs at index 1\n',
        's-construction/Sch/transfer-left\ttransfer-left-dist\tpass\t-\n',
        's-construction/Sch/transfer-right\ttransfer-right-dist\tpass\t-\n',
        's-construction/Sch/lex\tlex-order\tpass\t-\n',
    ]
)


def test_a_document_with_mirrored_names_prints_names(capsys):
    assert run(capsys, "check", MIRRORED, "--format", "records") == (1, MIRRORED_RECORDS, "")
    assert run(capsys, "eval", MIRRORED, "--expr", "nu(f)") == (0, "0\n", "")
    assert run(capsys, "eval", MIRRORED, "--expr", "cmb({x1: 1, x2: 1})") == (0, "1\n", "")
    assert run(capsys, "witness", MIRRORED, "--check", "idempotent/nu/meet") == (
        1,
        "[FAIL] idempotent/nu/meet (meet)\n       witness: ({x1: 1, x2: 0},{x1: 0, x2: 1},1,0)\n",
        "",
    )


def test_eval_refuses_a_function_declared_on_another_space(tmp_path, capsys):
    doc = tmp_path / "two-spaces.workspace"
    doc.write_text(
        DEMO.read_text(encoding="utf-8")
        + "\n[space T]\nstructure = mp3\npoints = x1 x2\n"
        + "\n[function g]\nspace = T\nvalues = x1:2 x2:2\n"
        + "\n[functional d]\nspace = S\nkind = dirac\npoint = x1\n",
        encoding="utf-8",
    )
    message = "error: function 'g' is declared on space 'T', not on space 'S' of functional {!r}\n"
    for name in ("d", "nu"):
        assert run(capsys, "eval", doc, "--expr", f"{name}(g)") == (2, "", message.format(name))
    assert run(capsys, "eval", doc, "--expr", "d(f)") == (0, "0\n", "")


def pass_block(check_id, law, note=None):
    return f"[PASS] {check_id} ({law})\n" + (f"       note: {note}\n" if note else "")


@pytest.mark.parametrize(
    "check_id, code, out",
    [
        ("laws/bool/assoc-add", 0, pass_block("laws/bool/assoc-add", "assoc-add")),
        # undeclared: an informational pass that names the first exception
        (
            "laws/rd/left-dist",
            0,
            pass_block("laws/rd/left-dist", "left-dist", "not declared; first exception (3,1,2,2,3)"),
        ),
        ("s-construction/Sch/nonassoc", 0, None),
        ("s-construction/Sch/directed", 0, pass_block("s-construction/Sch/directed", "directed")),
        ("s-construction/Sch/lex", 0, pass_block("s-construction/Sch/lex", "lex-order")),
        ("s-construction/Sch/transfer-left", 0, pass_block("s-construction/Sch/transfer-left", "transfer-left-dist")),
        ("s-construction/Sch/transfer-right", 0, pass_block("s-construction/Sch/transfer-right", "transfer-right-dist")),
        (
            "idempotent/nu/meet",
            1,
            "[FAIL] idempotent/nu/meet (meet)\n       witness: ({x1: 0, x2: 1},{x1: 1, x2: 0},0,1)\n",
        ),
    ],
)
def test_witness_exit_codes(capsys, check_id, code, out):
    got_code, got_out, err = run(capsys, "witness", DEMO, "--check", check_id)
    assert (got_code, err) == (code, "")
    if out is None:
        assert got_out.startswith(f"[PASS] {check_id} (nonassoc-witness)\n       note: witness ")
        assert "differs at index" in got_out
    else:
        assert got_out == out


def demo_text_blocks():
    """The text block of each record `check` prints for the demo, by id."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(DEMO)]) == 1
    *blocks, summary = re.split(r"\n(?=\S)", out.getvalue())
    assert summary == "77 checks, 2 failed\n"
    return {block.split()[1]: block + "\n" for block in blocks}


def test_every_demo_record_can_be_replayed(capsys):
    blocks = demo_text_blocks()
    golden = [line.split("\t") for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    assert list(blocks) == [fields[0] for fields in golden]
    for check_id, _, status, *_ in golden:
        code = {"pass": 0, "fail": 1}[status]
        assert run(capsys, "witness", DEMO, "--check", check_id) == (code, blocks[check_id], "")


@pytest.mark.parametrize(
    "check_id",
    ["laws/ghost/assoc-add", "laws/bool", "bool:assoc-add", "s-construction/Sch/middle", "s-construction/Sch/nonassoc-foo"],
)
def test_witness_refuses_unknown_ids(capsys, check_id):
    assert run(capsys, "witness", DEMO, "--check", check_id) == (2, "", f"error: no record with id {check_id!r}\n")


# the demo's right-distributive structure as the component of a second scheme
RD_SCHEME = "\n[scheme R]\nstructure = rd\nwindow = 0 4\nmul.phi = 1\n"


@pytest.mark.parametrize(
    "check_id, code, out",
    [
        ("s-construction/R/transfer-right", 0, pass_block("s-construction/R/transfer-right", "transfer-right-dist")),
        ("s-construction/R/lex", 0, pass_block("s-construction/R/lex", "lex-order")),
        # rd does not declare left-dist, so the suite makes no transfer-left record
        ("s-construction/R/transfer-left", 2, ""),
    ],
)
def test_witness_replays_the_records_of_a_second_scheme(tmp_path, capsys, check_id, code, out):
    doc = tmp_path / "rd-scheme.workspace"
    doc.write_text(DEMO.read_text(encoding="utf-8") + RD_SCHEME, encoding="utf-8")
    got_code, got_out, err = run(capsys, "witness", doc, "--check", check_id)
    assert (got_code, got_out) == (code, out)
    assert err == ("" if code < 2 else f"error: no record with id {check_id!r}\n")


def test_an_embed_entry_outside_the_component_exits_2(tmp_path, capsys):
    doc = tmp_path / "embed.workspace"
    doc.write_text(DEMO.read_text(encoding="utf-8").replace("mul.phi = 1", "mul.phi = 1\nembed = 0:0 1:1 x:y"), encoding="utf-8")
    line = next(i for i, text in enumerate(doc.read_text(encoding="utf-8").splitlines(), 1) if text.startswith("embed"))
    message = f"error: line {line}: [scheme Sch]: embed entry 'x:y' names an element outside structure 'bool'\n"
    assert run(capsys, "check", doc) == (2, "", message)


# mul is generated by {0, 1, 2}, whose left multiplications all
# distribute, but mul is not associative and L_3 does not distribute
GUARD = (
    "[structure G]\nelements = 0 1 2 3\norder = chain\nzero = 0\none = 1\n"
    "add.row.0 = 0 1 2 3\nadd.row.1 = 1 2 3 3\nadd.row.2 = 2 2 3 3\nadd.row.3 = 3 3 3 3\n"
    "mul.row.0 = 0 0 0 0\nmul.row.1 = 0 1 2 3\nmul.row.2 = 0 2 3 3\nmul.row.3 = 0 3 1 3\n"
)


def test_a_false_left_dist_flag_exits_2_with_the_first_witness(tmp_path, capsys):
    doc = tmp_path / "guard.workspace"
    doc.write_text(GUARD + "flags = left-dist\n", encoding="utf-8")
    message = "error: line 1: [structure G]: G: declared flag left-dist fails at ('3', '1', '1', '1', '3')\n"
    assert run(capsys, "check", doc) == (2, "", message)


@pytest.mark.parametrize(
    "flags, named",
    [
        ("left-dist assoc-mul", "declared flag assoc-mul fails at ('2', '2', '2', '1', '3')"),
        ("left-dist nonsense assoc-mul bogus", "unknown law flag 'bogus'"),
    ],
)
def test_the_flag_refused_does_not_depend_on_string_hashing(tmp_path, flags, named):
    # unknown flags are refused first, then the declared laws in LAWS order
    doc = tmp_path / "guard.workspace"
    doc.write_text(GUARD + f"flags = {flags}\n", encoding="utf-8")
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "ordalg.cli", "check", str(doc)], capture_output=True, text=True, env=env
        )
        assert (proc.returncode, proc.stderr) == (2, f"error: line 1: [structure G]: G: {named}\n"), seed


DIAMOND = """
[structure D]
elements = 0 a b 1
order = 0<=a 0<=b a<=1 b<=1
zero = 0
one = 1
add.row.0 = 0 a b 1
add.row.a = a a 1 1
add.row.b = b 1 b 1
add.row.1 = 1 1 1 1
mul.row.0 = 0 0 0 0
mul.row.a = 0 a 0 a
mul.row.b = 0 0 b b
mul.row.1 = 0 a b 1
flags = assoc-add assoc-mul comm-add comm-mul left-dist right-dist

[scheme DS]
structure = D
window = 0 3
mul.phi = 1
"""

VEE = """
[structure V]
elements = 0 a b
order = 0<=a 0<=b
zero = 0
one = a
add.row.0 = 0 a b
add.row.a = a a b
add.row.b = b b b
mul.row.0 = 0 0 0
mul.row.a = 0 a b
mul.row.b = 0 b b

[scheme VS]
structure = V
window = 0 3
"""


def psi_demo():
    text = DEMO.read_text(encoding="utf-8")
    assert "mul.psi = 0" in text
    return text.replace("mul.psi = 0", "mul.psi = 1")


@pytest.mark.parametrize(
    "text, code, records",
    [
        # incomparable component values: the lex order is not total
        (
            DIAMOND,
            1,
            [
                "s-construction/DS/directed\tdirected\tpass\t-",
                "s-construction/DS/nonassoc\tnonassoc-witness\tfail\t-\texhausted after 64 triples",
                "s-construction/DS/transfer-left\ttransfer-left-dist\tpass\t-",
                "s-construction/DS/transfer-right\ttransfer-right-dist\tpass\t-",
                "s-construction/DS/lex\tlex-order\tfail\t({0: a},{0: b})",
            ],
        ),
        # no upper bound of a and b: the componentwise order is not directed
        (
            VEE,
            1,
            [
                "s-construction/VS/directed\tdirected\tfail\t({0: a},{0: b})",
                "s-construction/VS/lex\tlex-order\tfail\t({0: a},{0: b})",
            ],
        ),
        # products at index 0 escape the window; distributivity still transfers
        (
            psi_demo(),
            1,
            [
                "s-construction/Sch/directed\tdirected\tpass\t-",
                "s-construction/Sch/nonassoc\tnonassoc-witness\tfail\t-\texhausted after 512 triples",
                "s-construction/Sch/transfer-left\ttransfer-left-dist\tpass\t-",
                "s-construction/Sch/transfer-right\ttransfer-right-dist\tpass\t-",
                "s-construction/Sch/lex\tlex-order\tpass\t-",
            ],
        ),
    ],
    ids=["diamond", "vee", "demo-psi-1"],
)
def test_schemes_that_once_exited_2_print_their_records(tmp_path, capsys, text, code, records):
    doc = tmp_path / "scheme.workspace"
    doc.write_text(text, encoding="utf-8")
    got_code, out, err = run(capsys, "check", doc, "--suite", "s-construction", "--format", "records")
    assert (got_code, out.splitlines(), err) == (code, records, "")


def homogeneous_demo(tmp_path):
    text = DEMO.read_text(encoding="utf-8")
    assert "regime = unit-cocycle" in text
    doc = tmp_path / "homogeneous.workspace"
    doc.write_text(text.replace("regime = unit-cocycle", "regime = homogeneous"), encoding="utf-8")
    return doc


def regime_refusal(doc):
    """The parse error of the one unknown regime, at its line."""
    line = doc.read_text(encoding="utf-8").splitlines().index("regime = homogeneous") + 1
    return f"error: line {line}: [action A]: unknown regime 'homogeneous'\n"


def test_homogeneous_regime_exits_2_with_its_message(tmp_path, capsys):
    doc = homogeneous_demo(tmp_path)
    code, out, err = run(capsys, "check", doc, "--suite", "convolution")
    assert code == 2
    assert err == regime_refusal(doc)


def test_homogeneous_regime_is_refused_before_the_seed_family(tmp_path, capsys, monkeypatch):
    def seed(sys, kind):
        raise AssertionError("the seed family was built before the regime was checked")

    monkeypatch.setattr("ordalg.convolution.all_kind_functionals", seed)
    doc = homogeneous_demo(tmp_path)
    code, out, err = run(capsys, "check", doc, "--suite", "convolution")
    assert (code, out) == (2, "")
    assert err == regime_refusal(doc)


@pytest.mark.parametrize("builtin", ["boolean", "max-plus-chain 3"])
def test_monad_on_a_monotone_space_passes(tmp_path, capsys, builtin):
    # the flattening reads only functions of the space, never a composition that leaves it
    doc = tmp_path / "monotone.workspace"
    doc.write_text(
        f"[structure K]\nbuiltin = {builtin}\n\n[space P]\nstructure = K\npoints = a b\nvariant = +\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", doc, "--suite", "monad", "--format", "records")
    assert (code, err) == (0, "")
    records = [line.split("\t") for line in out.splitlines()]
    assert [law for _, law, _, _ in records] == [
        "family-hosts-units",
        "unit-eta-outer",
        "unit-eta-inner",
        "bar-constant",
        "bar-join",
        "assoc",
    ]
    assert {(verdict, witness) for _, _, verdict, witness in records} == {("pass", "-")}


SKEW_SPACE = (
    "[structure skew]\nelements = 0 1 2\norder = chain\nzero = 0\none = 1\n"
    "add.row.0 = 0 1 2\nadd.row.1 = 1 1 2\nadd.row.2 = 2 1 2\n"
    "mul.row.0 = 0 0 0\nmul.row.1 = 0 1 2\nmul.row.2 = 0 2 2\n\n"
    "[space P]\nstructure = skew\npoints = a b\nvariant = +\n"
)


def test_monad_on_a_space_that_a_constant_shift_leaves_exits_2_naming_the_space(tmp_path, capsys):
    # 2 + 0 = 2 but 2 + 1 = 1, so adding 2 on the left takes the monotone {a: 0, b: 1} out of P
    doc = tmp_path / "skew.workspace"
    doc.write_text(SKEW_SPACE, encoding="utf-8")
    message = "error: a constant shift leaves the monotone space 'P': {a: 2, b: 1} is not a function of it\n"
    assert run(capsys, "check", doc, "--suite", "monad") == (2, "", message)


WIDE_SPACE = (
    "[structure K]\nbuiltin = max-plus-chain 60\n\n"
    "[space S]\nstructure = K\npoints = a b c d\n\n"
    "[functional nu]\nspace = S\nkind = sup_over\nset = a b\n"
)


@pytest.mark.parametrize(
    "suite, text",
    [("monad", WIDE_SPACE.replace("points = a b c d", "points = a b c d\nvariant = +")), ("idempotent", WIDE_SPACE)],
    ids=["monad", "idempotent"],
)
def test_a_space_beyond_the_function_cap_exits_2_promptly(tmp_path, capsys, suite, text):
    # 60**4 functions: parsing checks sups by pairs, and enumeration is
    # refused before any function is made; the monad suite scans only off a chain
    doc = tmp_path / "wide.workspace"
    doc.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", doc, "--suite", suite)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: 12960000 functions on S exceed the cap 65536\n"


def test_the_monad_on_a_chain_beyond_the_function_cap_passes_promptly(tmp_path, capsys):
    # the default family over a chain is decided by a theorem, which makes no function
    doc = tmp_path / "wide.workspace"
    doc.write_text(WIDE_SPACE, encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", doc, "--suite", "monad", "--format", "records")
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert [line.split("\t")[1:3] for line in out.splitlines()] == [[law, "pass"] for law in MONAD_LAWS]


def cyclic_action_doc(n: int, builtin: str) -> str:
    """Z_n acting on itself by addition, unit cocycle, kind join, over the builtin K."""
    g = [f"g{i}" for i in range(n)]
    rows = [" ".join(g[(i + j) % n] for j in range(n)) for i in range(n)]
    maps = "".join(
        f"groupoid.row.{g[i]} = {rows[i]}\nact.{g[i]} = {rows[i]}\nrho.{g[i]} = {' '.join(['1'] * n)}\n" for i in range(n)
    )
    return (
        f"[structure K]\nbuiltin = {builtin}\n\n[action Z]\nstructure = K\ngroupoid-elements = {' '.join(g)}\n"
        f"{maps}unit = g0\npoints = {' '.join(g)}\nL = 0 1\nkind = join\n"
    )


def test_a_convolution_past_the_table_cap_passes_from_its_point_maps(tmp_path, capsys):
    # Z5 over bool has 2**32 value tables and 2**5 + 1 join functionals
    doc = tmp_path / "z5-bool.workspace"
    doc.write_text(cyclic_action_doc(5, "boolean"), encoding="utf-8")
    code, out, err = run(capsys, "check", doc, "--suite", "convolution", "--format", "records")
    # the action, the eight algebra laws and the supports of the three invariant members
    assert (code, len(out.splitlines()), err) == (0, 12, "")


@pytest.mark.parametrize(
    "n, builtin, message",
    [
        # 20**4 + 10**4 + 4**4 + 1 tuples of point maps
        (4, "max-plus-chain 4", "170257 point-map candidates exceed the cap 100000"),
        # 2**12 + 1 tuples, each a table of 2**12 values
        (12, "boolean", "4097 point-map tables of 4096 values exceed the cap 10000000 values"),
        # 252**2 + 126**2 + 56**2 + 21**2 + 6**2 + 1 join functionals, past the default budget
        (2, "max-plus-chain 6", "82994 join functionals exceed the budget 20000"),
    ],
    ids=["Z4-mp4", "Z12-bool", "Z2-mp6"],
)
def test_a_convolution_beyond_a_cap_or_the_budget_exits_2_promptly(tmp_path, capsys, n, builtin, message):
    # the tuples, their values and the family are counted before any table is made
    doc = tmp_path / "cyclic.workspace"
    doc.write_text(cyclic_action_doc(n, builtin), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", doc, "--suite", "convolution")
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "n, builtin, invariant",
    [
        # the trivial group leaves every one of the 1716 join functionals invariant
        (1, "max-plus-chain 7", 1716),
        # 6376 join functionals, 126 of them invariant
        (2, "max-plus-chain 5", 126),
    ],
    ids=["Z1-mp7", "Z2-mp5"],
)
def test_a_convolution_past_the_pair_cap_passes_by_the_theorem_promptly(tmp_path, capsys, n, builtin, invariant):
    # the ideal laws of a cyclic group acting on itself are decided with no
    # product made, so the pairs of a member and an invariant one are not capped
    doc = tmp_path / "cyclic.workspace"
    doc.write_text(cyclic_action_doc(n, builtin), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", doc, "--suite", "convolution", "--format", "records")
    assert time.perf_counter() - start < 2
    # the action, the eight algebra laws and the supports of the invariant members
    assert (code, len(out.splitlines()), err) == (0, 9 + invariant, "")


@pytest.mark.parametrize("budget", [0, -3])
def test_a_budget_below_1_exits_2_from_either_source(tmp_path, capsys, budget):
    message = f"error: budget {budget} must be at least 1\n"
    assert run(capsys, "check", DEMO, "--budget", budget) == (2, "", message)
    doc = tmp_path / "budget.workspace"
    text = DEMO.read_text(encoding="utf-8").replace("budget = 20000", f"budget = {budget}")
    doc.write_text(text, encoding="utf-8")
    # the document's budget is refused at its line as it is parsed, whatever the command line says
    at = text.splitlines().index(f"budget = {budget}") + 1
    refused = (2, "", f"error: line {at}: [suite default]: budget {budget} must be at least 1\n")
    assert run(capsys, "check", doc, "--format", "records") == refused
    assert run(capsys, "check", doc, "--format", "records", "--budget", 20000) == refused


def test_a_window_beyond_the_cap_exits_2_promptly(tmp_path, capsys):
    doc = tmp_path / "wide-window.workspace"
    doc.write_text(DEMO.read_text(encoding="utf-8").replace("window = 0 5", "window = 0 1000000000000"), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", doc, "--suite", "s-construction")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: line 53: [scheme Sch]: window of 1000000000000 indices exceeds the cap 10000\n"


# the records of the demo's action with K = mp3: a 46-member algebra
MP3_ACTION_RECORDS = [
    f"convolution/A/{law}\t{law}\tpass\t-"
    for law in (
        "action",
        "closure-add",
        "closure-conv",
        "conv-right-dist",
        "conv-left-dist",
        "unit-neutral",
        "ideal-add",
        "ideal-left",
        "ideal-right",
    )
] + [
    f"convolution/A/support-bound-{i}\tsupport-bound\tpass\t-{note}"
    for i, note in enumerate([""] * 6 + ["\tsupport degenerate"] * 4)
]


def test_the_demo_action_over_mp3(tmp_path, capsys):
    text = DEMO.read_text(encoding="utf-8")
    start = text.index("[action A]")
    action = text[start : text.index("\n\n", start)]
    assert "structure = bool" in action
    doc = tmp_path / "mp3-action.workspace"
    doc.write_text(
        "[structure mp3]\nbuiltin = max-plus-chain 3\n\n"
        + action.replace("structure = bool", "structure = mp3")
        + "\n\n[suite default]\nrun = convolution\nbudget = 20000\nseed = 0\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", doc, "--format", "records")
    assert (code, err) == (0, "")
    assert out.splitlines() == MP3_ACTION_RECORDS


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"act.e = e a": "act.e = a e"}, "[action A] fails the action laws at ('unit-action', 'e')"),
        ({"unit = e": "unit = z"}, "[action A]: A.G: unit 'z' not in carrier"),
        ({"L = 0 1": "L = 0 1 7"}, "[action A]: L element '7' not in carrier"),
        # the values at (e,a) and (a,e) both lie outside L minus zero; the first by name is named
        (
            {"rho.e = 1 1": "rho.e = 1 0", "rho.a = 1 1": "rho.a = 0 1"},
            "[action A]: cocycle value at (a,e) must lie in L minus zero",
        ),
    ],
    ids=["unit-action", "cocycle-value", "unit", "L"],
)
def test_a_bad_demo_action_exits_2_naming_its_first_failure(tmp_path, capsys, edits, message):
    text = DEMO.read_text(encoding="utf-8")
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    doc = tmp_path / "action.workspace"
    doc.write_text(text, encoding="utf-8")
    assert run(capsys, "check", doc) == (2, "", f"error: line 38: {message}\n")


@st.composite
def mutated_demo(draw):
    """The demo document after one to four edits, each dropping,
    duplicating or truncating a line, or swapping two of its tokens."""
    lines = DEMO.read_text(encoding="utf-8").splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(("drop", "duplicate", "truncate", "swap")))
        if how == "drop":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "truncate":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            tokens = lines[i].split()
            a, b = (draw(st.integers(0, max(len(tokens) - 1, 0))) for _ in range(2))
            if tokens:
                tokens[a], tokens[b] = tokens[b], tokens[a]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def quiet_main(*argv):
    """main's exit code and what it printed to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(text=mutated_demo(), data=st.data())
def test_a_mutated_demo_exits_0_1_or_2(tmp_path_factory, text, data):
    # witness replays one record of the same run, or fails as check does
    doc = tmp_path_factory.getbasetemp() / "mutated.workspace"
    doc.write_text(text, encoding="utf-8")
    code, out = quiet_main("check", doc, "--format", "records")
    assert code in (0, 1, 2)
    if code == 2:
        assert quiet_main("witness", doc, "--check", "laws/bool/order")[0] == 2
        return
    statuses = {}
    for line in out.splitlines():
        check_id, _, status = line.split("\t")[:3]
        statuses.setdefault(check_id, status)
    if statuses:
        check_id = data.draw(st.sampled_from(sorted(statuses)))
        expected = {"pass": 0, "fail": 1}[statuses[check_id]]
        assert quiet_main("witness", doc, "--check", check_id)[0] == expected


@st.composite
def rescaled_scheme(draw):
    """The demo with the window and the four offsets of its [scheme Sch]
    replaced by integers from -10**12 to 10**12, half of them small."""
    integer = st.integers(-2, 12) | st.integers(-(10**12), 10**12)
    values = {"window": f"{draw(integer)} {draw(integer)}"}
    values.update((key, draw(integer)) for key in ("add.psi", "add.phi", "mul.psi", "mul.phi"))
    lines = DEMO.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        key = line.split(" = ")[0]
        if key in values:
            lines[i] = f"{key} = {values[key]}"
    return "\n".join(lines) + "\n"


# a scheme within the guards checks in well under a second; one that runs
# for 5 s has slipped past them
@settings(max_examples=100, derandomize=True, deadline=5000)
@given(text=rescaled_scheme())
def test_a_rescaled_scheme_exits_0_1_or_2(tmp_path_factory, text):
    doc = tmp_path_factory.getbasetemp() / "rescaled.workspace"
    doc.write_text(text, encoding="utf-8")
    assert quiet_main("check", doc, "--suite", "s-construction")[0] in (0, 1, 2)
