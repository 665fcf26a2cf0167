"""The self-contained workspace document format.

A document is a sequence of sections, each opened by a `[kind name]`
header and followed by `key = value` lines; `#` starts a comment.  The
parser validates everything it builds (tables are total, flags re-verify,
cross-references resolve) and refuses a failure at the line of its key,
or else of its section, after the section's prefix (`Section.at`).

Two values have a shape of their own, each read in one place:

- A row: the key `prefix.r` holds the entries of row r, one per column,
  separated by blanks (`Section.table`).  The rows `add.row` and
  `mul.row` of a structure, and `groupoid.row`, `act` and `rho` of an
  action, take this shape.
- Pairs: blank-separated tokens `a:b` (`pairs`), which a function's
  `values` and a scheme's `embed` take, as does the literal
  `{a: b, ...}` of `ordalg eval`, between commas.

Names become codes where a section's object is built: `order.encode`
codes a carrier, `order.codes` looks up the other names a constructor
is given and `structures.code_rows` a table.  The parser checks only the
embed's names itself, to report a wrong one at the `embed` line.

Section kinds: structure, space, function, functional, action, scheme,
suite.  See docs/demo.workspace for a complete example.  The builders of
action and scheme sections import `convolution` and `sproduct`, so a
document without such a section never loads them.
"""
from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations

from .errors import CapacityError, InputError, OrdalgError
from .funcspace import SIDES, VARIANTS, FunctionSpace, KFunction
from .functionals import Dirac, Functional, InfOver, SupOver, weighted_combo
from .order import OrderRelation
from .structures import (
    FinStruct,
    boolean_semiring,
    maxplus_chain,
    require_desk_scale,
    right_dist_only,
    trivial_structure,
)


SUITES = ("laws", "idempotent", "monad", "convolution", "s-construction")


class ParseError(InputError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")


class Section:
    def __init__(self, kind: str, name: str, line: int, entries: list):
        self.kind = kind
        self.name = name
        self.line = line
        self.entries = entries  # (key, value, line)
        self.read = set()  # the keys its builder asked for

    def get(self, key: str, default=None) -> str | None:
        self.read.add(key)
        for k, v, _ in self.entries:
            if k == key:
                return v
        return default

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None:
            raise ParseError(f"section [{self.kind} {self.name}] is missing key {key!r}", self.line)
        return v

    def choice(self, key: str, options, what: str) -> str | None:
        """The key's value, None when it is absent; one not among `options` is refused at its line."""
        v = self.get(key)
        if v is not None and v not in options:
            raise ParseError(f"[{self.kind} {self.name}]: unknown {what} {v!r}", self.line_of(key))
        return v

    def integer(self, key: str, default: str) -> int:
        """The key's value as an integer, or `default` when the key is absent."""
        with self.at(key):
            return _integer(self.get(key, default), key)

    @contextmanager
    def at(self, key: str | None = None):
        """Refuse an `OrdalgError` that the block raises at the key's line, or
        the section's, after its prefix; a placed or capacity refusal passes."""
        try:
            yield
        except (ParseError, CapacityError):
            raise
        except OrdalgError as exc:
            raise ParseError(f"[{self.kind} {self.name}]: {exc}", self.line_of(key)) from exc

    def line_of(self, key: str | None) -> int:
        for k, _, ln in self.entries:
            if k == key:
                return ln
        return self.line

    def table(self, prefix: str, rows, columns) -> dict:
        """{(r, c): entry} from each row key `prefix.r = entry ...`, whose
        entries are those of the c in `columns`, in order; an r not in
        `rows`, or a row of another length, is refused at its line."""
        out = {}
        for k, v, ln in self.entries:
            if k.startswith(prefix + "."):
                self.read.add(k)
                r, entries = k[len(prefix) + 1 :], v.split()
                if r not in rows:
                    raise ParseError(f"[{self.kind} {self.name}]: {k!r} names {r!r}, outside its carrier", ln)
                if len(entries) != len(columns):
                    message = f"{k!r} has {len(entries)} entries, expected {len(columns)}"
                    raise ParseError(f"[{self.kind} {self.name}]: {message}", ln)
                out.update(zip(((r, c) for c in columns), entries))
        return out

    def refuse_unread(self) -> None:
        """Refuse the first key that the section's builder never read."""
        for k, _, ln in self.entries:
            if k not in self.read:
                raise ParseError(f"[{self.kind} {self.name}]: unknown key {k!r}", ln)


def pairs(tokens, key: str, where: str) -> dict:
    """{a: b} from the tokens `a:b` of the `where`, each a naming a `key`;
    a token without a colon, or a repeated a, is refused."""
    out = {}
    for token in tokens:
        if ":" not in token:
            raise InputError(f"{where} entry {token!r} must look like a:b")
        a, b = (part.strip() for part in token.split(":", 1))
        if a in out:
            raise InputError(f"{key} {a!r} repeated in the {where}")
        out[a] = b
    return out


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {text!r}") from None


class Workspace:
    def __init__(self):
        self.structures = {}
        self.spaces = {}
        self.functions = {}
        self.function_spaces = {}  # the space each function is declared on
        self.functionals = {}
        self.actions = {}
        self.schemes = {}
        # what `ordalg check` runs when no option overrides it; a [suite] section overrides the keys it names
        self.suite_defaults = {"run": ["all"], "budget": 20000, "seed": 0}
        self.kinds = {}


def split_sections(text: str) -> list[Section]:
    sections: list[Section] = []
    current: Section | None = None
    seen = set()  # (kind, name) of each section header, (kind, name, key) of each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            head = line[1:-1].split()
            if len(head) != 2:
                raise ParseError("section header must be [kind name]", lineno)
            if tuple(head) in seen:
                raise ParseError(f"repeated section [{head[0]} {head[1]}]", lineno)
            seen.add(tuple(head))
            current = Section(head[0], head[1], lineno, [])
            sections.append(current)
            continue
        if current is None:
            raise ParseError("content before any section header", lineno)
        if "=" not in line:
            raise ParseError("expected `key = value`", lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if (current.kind, current.name, key) in seen:
            raise ParseError(f"[{current.kind} {current.name}]: repeated key {key!r}", lineno)
        seen.add((current.kind, current.name, key))
        current.entries.append((key, value.strip(), lineno))
    return sections


def parse(text: str) -> Workspace:
    ws = Workspace()
    sections = split_sections(text)
    order = {"structure": 0, "space": 1, "scheme": 2, "function": 3, "functional": 4, "action": 5, "suite": 6}
    for sec in sorted(sections, key=lambda s: (order.get(s.kind, 99),)):
        try:
            with sec.at():
                _build(ws, sec)
        except CapacityError as exc:
            raise CapacityError(f"line {sec.line}: [{sec.kind} {sec.name}]: {exc}") from exc
        sec.refuse_unread()
    return ws


def _build(ws: Workspace, sec: Section) -> None:
    if sec.kind == "structure":
        ws.structures[sec.name] = _build_structure(sec)
    elif sec.kind == "space":
        ws.spaces[sec.name] = _build_space(ws, sec)
    elif sec.kind == "function":
        space = _lookup(ws.spaces, sec.require("space"), sec, "space")
        ws.functions[sec.name] = _build_function(space, sec)
        ws.function_spaces[sec.name] = space
    elif sec.kind == "functional":
        space = _lookup(ws.spaces, sec.require("space"), sec, "space")
        ws.functionals[sec.name] = _build_functional(ws, space, sec)
    elif sec.kind == "action":
        ws.actions[sec.name], ws.kinds[sec.name] = _build_action(ws, sec)
    elif sec.kind == "scheme":
        ws.schemes[sec.name] = _build_scheme(ws, sec)
    elif sec.kind == "suite":
        defaults = ws.suite_defaults
        run = sec.get("run", "").split()
        for name in run:
            if name not in (*SUITES, "all"):
                raise ParseError(f"[suite {sec.name}]: unknown suite {name!r}", sec.line_of("run"))
        defaults["run"] = run or defaults["run"]
        for key in ("budget", "seed"):
            defaults[key] = sec.integer(key, str(defaults[key]))
        if defaults["budget"] < 1:
            raise ParseError(f"[suite {sec.name}]: budget {defaults['budget']} must be at least 1", sec.line_of("budget"))
    else:
        raise ParseError(f"unknown section kind {sec.kind!r}", sec.line)


def _lookup(table: dict, name: str, sec: Section, what: str):
    if name not in table:
        raise ParseError(f"[{sec.kind} {sec.name}] references unknown {what} {name!r}", sec.line)
    return table[name]


_BUILTINS = {  # kind: (make(name, *arguments), the number of arguments)
    "boolean": (boolean_semiring, 0),
    "max-plus-chain": (lambda name, size: maxplus_chain(_integer(size, "max-plus-chain size"), name), 1),
    "right-dist": (right_dist_only, 0),
    "trivial": (trivial_structure, 0),
}


def _build_structure(sec: Section) -> FinStruct:
    builtin = sec.get("builtin")
    if builtin is not None:
        kind, *args = builtin.split() or [""]
        with sec.at("builtin"):
            if kind not in _BUILTINS:
                raise InputError(f"unknown builtin structure {kind!r}")
            make, arity = _BUILTINS[kind]
            if len(args) != arity:
                raise InputError(f"builtin {kind!r} takes {('no arguments', 'one argument')[arity]}, got {len(args)}")
            return make(sec.name, *args)
    elements = tuple(sec.require("elements").split())
    require_desk_scale(sec.name, len(elements))
    order_spec = sec.require("order")
    if order_spec == "chain":
        order = OrderRelation.chain(elements)
    else:
        covers = []
        for token in order_spec.split():
            if "<=" not in token:
                raise ParseError(f"[structure {sec.name}]: order pair {token!r} must look like a<=b", sec.line_of("order"))
            a, b = token.split("<=", 1)
            covers.append((a, b))
        order = OrderRelation.from_covers(elements, covers)
        for (i, a), (j, b) in combinations(enumerate(elements), 2):
            if order.leq(i, j) and order.leq(j, i):
                raise ParseError(
                    f"[structure {sec.name}]: order has a cycle: {a} <= {b} and {b} <= {a}",
                    sec.line_of("order"),
                )
    zero = sec.require("zero")
    one = sec.require("one")
    add, mul = (sec.table(f"{label}.row", elements, elements) for label in ("add", "mul"))
    flags = frozenset(sec.get("flags", "").split())
    return FinStruct(sec.name, order, add, mul, zero, one, flags)


def _build_space(ws: Workspace, sec: Section) -> FunctionSpace:
    K = _lookup(ws.structures, sec.require("structure"), sec, "structure")
    points = tuple(sec.require("points").split())
    return FunctionSpace(points, K, sec.choice("variant", VARIANTS, "variant"), name=sec.name)


def _build_function(space: FunctionSpace, sec: Section) -> KFunction:
    with sec.at("values"):
        return space.function(pairs(sec.require("values").split(), "point", "function values"))


def _build_functional(ws: Workspace, space: FunctionSpace, sec: Section) -> Functional:
    kind = sec.require("kind")
    if kind == "dirac":
        return Dirac(space, sec.require("point"))
    if kind == "sup_over":
        return SupOver(space, frozenset(sec.require("set").split()))
    if kind == "inf_over":
        return InfOver(space, frozenset(sec.require("set").split()))
    if kind == "combo":
        side = sec.choice("side", SIDES, "side") or sec.require("side")
        coeffs = sec.require("coeffs").split()
        names = sec.require("parts").split()
        parts = [_lookup(ws.functionals, name, sec, "functional") for name in names]
        for name, part in zip(names, parts):
            if part.space is not space:
                message = f"[functional {sec.name}]: part {name!r} is not on space {space.name!r}"
                raise ParseError(message, sec.line_of("parts"))
        with sec.at("coeffs"):
            return weighted_combo(side, coeffs, parts)
    raise ParseError(f"[functional {sec.name}]: unknown functional kind {kind!r}", sec.line_of("kind"))


def _build_action(ws: Workspace, sec: Section) -> tuple:
    """The section's action and its kind; the kind and the regime, only unit-cocycle, are checked first,
    and the points, which must be G's elements, last."""
    from .convolution import KINDS, ActionSystem, Groupoid, check_action

    kind = sec.choice("kind", KINDS, "kind") or "join"
    sec.choice("regime", ("unit-cocycle",), "regime")
    K = _lookup(ws.structures, sec.require("structure"), sec, "structure")
    gelems = tuple(sec.require("groupoid-elements").split())
    G = Groupoid(sec.name + ".G", gelems, sec.table("groupoid.row", gelems, gelems), sec.require("unit"))
    points = tuple(sec.require("points").split())
    v, rho = (sec.table(prefix, gelems, points) for prefix in ("act", "rho"))
    L = sec.require("L").split()
    if len(set(L)) < len(L):
        raise ParseError(f"[action {sec.name}]: repeated element in L = {' '.join(L)}", sec.line_of("L"))
    sys = ActionSystem(G, K, points, v, frozenset(L), rho)
    verdict = check_action(sys)
    if not verdict:
        raise ParseError(
            f"[action {sec.name}] fails the action laws at {verdict.witness}", sec.line
        )
    if points != gelems:
        message = f"[action {sec.name}]: points must be the groupoid elements {' '.join(gelems)}, in order"
        raise ParseError(f"{message}: convolution acts on X = G itself", sec.line_of("points"))
    return sys, kind


def _build_scheme(ws: Workspace, sec: Section) -> IndexScheme:
    from .sproduct import IndexScheme

    K = _lookup(ws.structures, sec.require("structure"), sec, "structure")
    window = sec.require("window").split()
    with sec.at("window"):
        if len(window) != 2:
            raise InputError("window must be two integers `lo hi`")
        lo, hi = (_integer(token, "window") for token in window)
    psi = {}
    phi = {}
    for op in ("add", "mul"):
        psi[op] = sec.integer(f"{op}.psi", "0")
        phi[op] = sec.integer(f"{op}.phi", "0")
    embed = sec.get("embed")
    if embed is not None:
        with sec.at("embed"):
            embed = pairs(embed.split(), "element", "embed")
            for a, b in embed.items():
                if a not in K.code or b not in K.code:
                    raise InputError(f"embed entry {a + ':' + b!r} names an element outside structure {K.name!r}")
    scheme = IndexScheme(K, range(lo, hi), psi, phi, embed)
    if phi["mul"] and len(K.elements) < 2:
        # the non-associativity search, which a shifted mul runs, needs a second element
        message = f"[scheme {sec.name}]: mul.phi {phi['mul']} needs a component of at least two elements"
        raise ParseError(message, sec.line_of("mul.phi"))
    return scheme
