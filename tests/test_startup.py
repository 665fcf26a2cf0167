"""What `ordalg check` loads before it checks anything, each case in a
fresh interpreter started without `site`, so nothing but the code under
test imports modules."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO = ROOT / "docs" / "demo.workspace"

ONLY_SPACES = """\
[structure B]
builtin = boolean

[space S]
structure = B
points = x1 x2

[suite main]
run = laws idempotent monad
"""


def loaded_after(code: str) -> list:
    """The names `code` leaves in a JSON list on stdout, run after `src`
    is put on the path."""
    prelude = f"import json, sys\nsys.path.insert(0, {str(SRC)!r})\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_cli_imports_no_introspection_and_no_section_module():
    heavy = ["dataclasses", "inspect", "ordalg.ordinals", "ordalg.convolution", "ordalg.sproduct"]
    code = f"import ordalg.cli\nprint(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    assert loaded_after(code) == []


def test_a_document_without_action_or_scheme_loads_neither_module():
    code = (
        "from ordalg.workspace import parse\n"
        f"parse({ONLY_SPACES!r})\n"
        "print(json.dumps([m for m in ('ordalg.convolution', 'ordalg.sproduct') if m in sys.modules]))"
    )
    assert loaded_after(code) == []


def test_the_check_imports_nothing_the_parse_did_not():
    code = (
        "from ordalg.suites import run_suite\n"
        "from ordalg.workspace import parse\n"
        f"ws = parse(open({str(DEMO)!r}, encoding='utf-8').read())\n"
        "before = set(sys.modules)\n"
        "code, records = run_suite(ws, ['all'], ws.suite_defaults['budget'], ws.suite_defaults['seed'])\n"
        "assert records\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert loaded_after(code) == []
