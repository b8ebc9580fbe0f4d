"""The `.big` modeling language: parser and elaborator.

Covers control declarations (plain, atomic, parameterised), int/float
constants with arithmetic, bigraph and rule definitions (plain and
parameterised ``fun`` forms), and a system block selecting the kind and
listing the initial state, rules, predicates and (for an abrs) actions.

Comprehensions ``item for v in a:b`` expand over inclusive integer
ranges; the system-block syntax is this tool's own concretization and is
spelled out in docs/grammar.ebnf.

Names are unique across declarations.  In a bigraph expression a name,
with or without arguments, links and a nested child, resolves one way: a
declared control gives an ion; any other name must be a bigraph
definition, used with its parameter count and with no links or child.

The AST has one node per construct (a `BAtom` holds its nested child, a
`BProduct` is `|` or `||`), and expression nodes carry no position: a
`ParseError` is located at its token, an `ElabError` at the declaration,
system-block item or action being elaborated, which keep a `pos`, as
does the system block.  A model's bigraphs share one signature view.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from types import MappingProxyType
from typing import Optional

from .bigraph import (
    BigraphError,
    ControlDecl,
    close_name,
    hole,
    ion,
    merge_parallel,
    norm_number,
    number_text,
    parallel,
    unit,
)
from .system import (
    ActionDecl,
    PredicateDecl,
    SystemSpec,
    WeightedRule,
)


class LanguageError(BigraphError):
    pass


class ParseError(LanguageError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class ElabError(LanguageError):
    pass


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

KEYWORDS = {
    "atomic", "ctrl", "fun", "int", "float", "big", "react", "begin", "end",
    "init", "rules", "preds", "actions", "brs", "pbrs", "sbrs", "abrs",
    "par", "id", "for", "in",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<op>-->|-\[|\]->|\|\||[=;,.|/(){}\[\]:+\-*])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str  # 'num' | 'name' | keyword | operator | 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group()
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            if kind == "name" and text in KEYWORDS:
                kind = text
            elif kind == "op":
                kind = text
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass
class Num:
    value: str  # literal text, exact


@dataclass
class Ref:
    name: str


@dataclass
class BinOp:
    op: str
    left: object
    right: object


@dataclass
class Neg:
    arg: object


@dataclass
class BUnit:
    pass


@dataclass
class BSite:
    pass


@dataclass
class BAtom:
    """A name with optional arguments, links and nested child: an ion if
    the name is a declared control, otherwise a use of a bigraph
    definition (which takes no links and no child)."""

    name: str
    args: list
    names: list
    child: object = None


@dataclass
class BProduct:
    op: str  # '|' (merge) or '||' (parallel)
    parts: list


@dataclass
class BClose:
    name: str
    body: object


@dataclass
class BRepl:  # par(n, b)
    count: object
    body: object


def _pos_field():
    return field(default=(0, 0), compare=False, repr=False)


@dataclass
class CtrlDef:
    name: str
    params: list
    arity: object
    atomic: bool
    pos: tuple = _pos_field()


@dataclass
class ConstDef:
    kind: str  # 'int' | 'float'
    name: str
    value: object
    pos: tuple = _pos_field()


@dataclass
class BigDef:
    name: str
    params: list
    body: object
    pos: tuple = _pos_field()


@dataclass
class ReactDef:
    name: str
    params: list
    redex: object
    reactum: object
    weight: Optional[object]  # None for plain -->
    pos: tuple = _pos_field()


@dataclass
class Item:
    """A reference in a system-block list, optionally comprehended."""

    name: str
    args: list
    reward: Optional[object] = None
    ranges: list = field(default_factory=list)  # [(var, lo numexp, hi numexp)]
    pos: tuple = _pos_field()


@dataclass
class ActionItem:
    name: str
    reward: Optional[object]
    rules: list  # of Item
    pos: tuple = _pos_field()


@dataclass
class SystemBlock:
    kind: str
    init: str
    rules: list
    preds: list
    actions: list
    pos: tuple = _pos_field()


@dataclass
class Model:
    decls: list
    system: SystemBlock


# ---------------------------------------------------------------------------
# parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek().kind == kind

    def eat(self, kind: str) -> bool:
        if self.at(kind):
            self.next()
            return True
        return False

    def pos(self) -> tuple:
        t = self.peek()
        return (t.line, t.col)

    def name(self) -> str:
        return self.expect("name").text

    def listed(self, item, close: str, empty: bool = False) -> list:
        """`item, {",", item}` and then `close`; with `empty`, `close` may
        come at once."""
        items = []
        if not (empty and self.at(close)):
            items.append(item())
            while self.eat(","):
                items.append(item())
        self.expect(close)
        return items

    def args(self) -> list:
        return self.listed(self.numexp, ")") if self.eat("(") else []

    def reward(self):
        if not self.eat("["):
            return None
        value = self.numexp()
        self.expect("]")
        return value

    # -- model -------------------------------------------------------------

    def model(self) -> Model:
        if self.at("eof"):
            raise ParseError("empty model", *self.pos())
        decls = []
        while not self.at("begin"):
            if self.at("eof"):
                raise ParseError("missing 'begin <kind> ... end' block", *self.pos())
            decls.append(self.decl())
        system = self.system_block()
        self.expect("eof")
        return Model(decls, system)

    def decl(self):
        """One head for every declaration: `[atomic] [fun] kind name
        [(params)] = body ;`, where only controls may be atomic and
        constants may not be `fun`."""
        pos = self.pos()
        atomic = self.eat("atomic")
        fun = self.eat("fun")
        t = self.peek()
        if atomic and t.kind != "ctrl":
            raise ParseError("'atomic' only applies to controls", *pos)
        if t.kind not in ("ctrl", "big", "react") and (
            fun or t.kind not in ("int", "float")
        ):
            what = "'ctrl', 'big' or 'react'" if fun else "a declaration"
            raise ParseError(
                f"expected {what}, found {t.text or 'end of input'!r}",
                t.line, t.col,
            )
        self.next()
        name = self.name()
        params = []
        if fun:
            self.expect("(")
            params = self.listed(self.name, ")")
        self.expect("=")
        if t.kind == "big":
            d = BigDef(name, params, self.bexp(), pos)
        elif t.kind == "react":
            redex = self.bexp()
            weight = None
            if not self.eat("-->"):
                self.expect("-[")
                weight = self.numexp()
                self.expect("]->")
            d = ReactDef(name, params, redex, self.bexp(), weight, pos)
        elif t.kind == "ctrl":
            d = CtrlDef(name, params, self.numexp(), atomic, pos)
        else:
            d = ConstDef(t.kind, name, self.numexp(), pos)
        self.expect(";")
        return d

    # -- bigraph expressions -------------------------------------------------

    # Each precedence level is one Python frame, and a level's operand is
    # parsed by a direct call: the depth of parentheses a model may nest
    # is the recursion limit over the frames per level.

    def bexp(self, level: int = 0):
        """Level 0 is `||`, level 1 is `|`; their operands are `bterm`s."""
        op = _BIG_LEVELS[level]
        last = level + 1 == len(_BIG_LEVELS)
        parts = [self.bterm() if last else self.bexp(level + 1)]
        while self.eat(op):
            parts.append(self.bterm() if last else self.bexp(level + 1))
        return parts[0] if len(parts) == 1 else BProduct(op, parts)

    def bterm(self):
        if self.eat("/"):
            return BClose(self.name(), self.bterm())
        return self.bnest()

    def bnest(self):
        """An atom, nesting a `bterm` after a `.` if it is a name that has
        no child yet: `(A.B).C` is refused, not read as `A.C`."""
        pos = self.pos()
        head = self.batom()
        if self.eat("."):
            if not isinstance(head, BAtom) or head.child is not None:
                raise ParseError("only an ion or reference can nest", *pos)
            head.child = self.bterm()
        return head

    def batom(self):
        t = self.peek()
        if self.eat("id"):
            return BSite()
        if t.kind == "num":
            if t.text != "1":
                raise ParseError(
                    f"number {t.text!r} is not a bigraph (only '1' is)",
                    t.line, t.col,
                )
            self.next()
            return BUnit()
        if self.eat("par"):
            self.expect("(")
            count = self.numexp()
            self.expect(",")
            body = self.bexp()
            self.expect(")")
            return BRepl(count, body)
        if self.eat("("):
            inner = self.bexp()
            self.expect(")")
            return inner
        if self.eat("name"):
            args = self.args()
            names = self.listed(self.name, "}") if self.eat("{") else []
            return BAtom(t.text, args, names)
        raise ParseError(
            f"expected a bigraph expression, found {t.text or 'end of input'!r}",
            t.line, t.col,
        )

    # -- numeric expressions -------------------------------------------------

    def numexp(self, level: int = 0):
        """Level 0 is `+ -`, level 1 is `* /`, both left-associative; their
        operands are `numfactor`s."""
        last = level + 1 == len(_NUM_LEVELS)
        left = self.numfactor() if last else self.numexp(level + 1)
        while self.peek().kind in _NUM_LEVELS[level]:
            op = self.next().kind
            right = self.numfactor() if last else self.numexp(level + 1)
            left = BinOp(op, left, right)
        return left

    def numfactor(self):
        t = self.peek()
        if self.eat("-"):
            return Neg(self.numfactor())
        if self.eat("num"):
            return Num(t.text)
        if self.eat("name"):
            return Ref(t.text)
        if self.eat("("):
            inner = self.numexp()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a numeric expression, found {t.text or 'end of input'!r}",
            t.line, t.col,
        )

    # -- system block --------------------------------------------------------

    def system_block(self) -> SystemBlock:
        pos = self.pos()
        self.expect("begin")
        t = self.peek()
        if t.kind not in ("brs", "pbrs", "sbrs", "abrs"):
            raise ParseError(
                f"expected a system kind (brs/pbrs/sbrs/abrs), found {t.text!r}",
                t.line, t.col,
            )
        kind = self.next().kind
        clauses: dict = {}
        while not self.eat("end"):
            t = self.peek()
            if t.kind not in _CLAUSES:
                raise ParseError(
                    f"expected init/rules/preds/actions/end, found {t.text!r}",
                    t.line, t.col,
                )
            if t.kind in clauses:
                raise ParseError(f"duplicate {t.kind!r} clause", t.line, t.col)
            self.next()
            self.expect("=")
            clauses[t.kind] = _CLAUSES[t.kind](self)
            self.expect(";")
        for required in ("init", "rules"):
            if required not in clauses:
                raise ParseError(f"system block has no {required!r} clause", *pos)
        return SystemBlock(
            kind, clauses["init"], clauses["rules"],
            clauses.get("preds", []), clauses.get("actions", []), pos,
        )

    def items(self, item, open_tok: str, close_tok: str) -> list:
        """A bracketed list of system-block items, possibly empty."""
        self.expect(open_tok)
        return self.listed(item, close_tok, empty=True)

    def item(self, rewards: bool = False) -> Item:
        t = self.expect("name")
        args = self.args()
        reward = self.reward() if rewards else None
        ranges = []
        if self.eat("for"):
            ranges.append(self.range_clause())
            # a comma continues the comprehension only before NAME 'in'
            while (
                self.at(",")
                and self.peek(1).kind == "name"
                and self.peek(2).kind == "in"
            ):
                self.next()
                ranges.append(self.range_clause())
        return Item(t.text, args, reward, ranges, (t.line, t.col))

    def range_clause(self):
        var = self.name()
        self.expect("in")
        lo = self.numexp()
        self.expect(":")
        hi = self.numexp()
        return (var, lo, hi)

    def action_item(self) -> ActionItem:
        t = self.expect("name")
        reward = self.reward()
        self.expect("=")
        rules = self.items(self.item, "{", "}")
        return ActionItem(t.text, reward, rules, (t.line, t.col))


_BIG_LEVELS = ("||", "|")
_NUM_LEVELS = (("+", "-"), ("*", "/"))
# the value of each system-block clause, parsed after its `=`
_CLAUSES = {
    "init": _Parser.name,
    "rules": lambda p: p.items(p.item, "[", "]"),
    "preds": lambda p: p.items(lambda: p.item(rewards=True), "[", "]"),
    "actions": lambda p: p.items(p.action_item, "[", "]"),
}


def parse(source: str) -> Model:
    """Parse `.big` source into an AST; its declarations, system-block
    items and actions and the system block carry their source positions."""
    parser = _Parser(tokenize(source))
    try:
        return parser.model()
    except RecursionError:
        # recursive descent nests Python calls as deep as the expression
        raise ParseError("expression nested too deeply", *parser.pos()) from None


# ---------------------------------------------------------------------------
# elaborator
# ---------------------------------------------------------------------------


def _eval_num(e, env: dict):
    if isinstance(e, Num):
        return norm_number(Fraction(e.value))
    if isinstance(e, Ref):
        if e.name not in env:
            raise ElabError(f"unknown constant or parameter {e.name!r}")
        return env[e.name]
    if isinstance(e, Neg):
        return -_eval_num(e.arg, env)
    if isinstance(e, BinOp):
        a, b = _eval_num(e.left, env), _eval_num(e.right, env)
        if e.op == "+":
            return norm_number(a + b)
        if e.op == "-":
            return norm_number(a - b)
        if e.op == "*":
            return norm_number(a * b)
        if b == 0:
            raise ElabError("division by zero in a model expression")
        return norm_number(Fraction(a) / Fraction(b))
    raise TypeError(e)


def _eval_int(e, env: dict, what: str) -> int:
    v = _eval_num(e, env)
    if not isinstance(v, int):
        raise ElabError(f"{what} must be an integer, got {v}")
    return v


def instance_name(name: str, args) -> str:
    if not args:
        return name
    return f"{name}({','.join(map(number_text, args))})"


class _Elaborator:
    def __init__(self, model: Model):
        self.model = model
        self.signature: dict[str, ControlDecl] = {}
        self.consts: dict = {}
        self.bigs: dict[str, BigDef] = {}
        self.reacts: dict[str, ReactDef] = {}
        self.names: set = set()
        # where the declaration, system-block item or outermost definition
        # being elaborated starts: the location of an ElabError
        self.at: tuple = model.system.pos

    def declare(self, name: str, pos):
        if name in self.names:
            raise ParseError(f"duplicate declaration of {name!r}", *pos)
        self.names.add(name)

    def run(self) -> SystemSpec:
        for d in self.model.decls:
            self.declare(d.name, d.pos)
            self.at = d.pos
            if isinstance(d, CtrlDef):
                arity = _eval_int(d.arity, self.consts, f"arity of {d.name}")
                if arity < 0:
                    raise ElabError(f"control {d.name}: arity must be >= 0")
                self.signature[d.name] = ControlDecl(
                    d.name, arity, d.atomic, len(d.params)
                )
            elif isinstance(d, ConstDef):
                v = _eval_num(d.value, self.consts)
                if d.kind == "int" and not isinstance(v, int):
                    raise ElabError(f"int constant {d.name} evaluates to {v}")
                if d.kind == "float":
                    v = Fraction(v)
                self.consts[d.name] = v
            elif isinstance(d, BigDef):
                self.bigs[d.name] = d
            else:
                self.reacts[d.name] = d
        # one read-only view, shared by every bigraph of the model
        self.signature = MappingProxyType(self.signature)
        return self.system()

    # -- bigraph evaluation --------------------------------------------------

    def big(self, e, env: dict):
        if isinstance(e, BUnit):
            return unit(self.signature)
        if isinstance(e, BSite):
            return hole(self.signature)
        if isinstance(e, BAtom):
            child = None if e.child is None else self.big(e.child, env)
            args = (_eval_num(a, env) for a in e.args)
            return self.atom(e.name, args, e.names, child)
        if isinstance(e, BProduct):
            product = merge_parallel if e.op == "|" else parallel
            return reduce(product, [self.big(p, env) for p in e.parts])
        if isinstance(e, BClose):
            return close_name(self.big(e.body, env), e.name)
        if isinstance(e, BRepl):
            n = _eval_int(e.count, env, "par() count")
            if n < 0:
                raise ElabError("par() count must be >= 0")
            copies = [self.big(e.body, env)] * n if n else []
            return reduce(merge_parallel, copies, unit(self.signature))
        raise TypeError(e)

    def atom(self, name: str, args, names=(), child=None):
        """The one resolver of a name: a declared control gives an ion
        (nesting `child` if given), any other name must be a bigraph
        definition, which takes no links and no child.  `args` is read
        only once the name has resolved, so an unknown name is reported
        before an error in its arguments."""
        if name in self.signature:
            return ion(self.signature, name, tuple(args), names, child)
        d = self.bigs.get(name)
        if d is None:
            raise ElabError(f"unknown bigraph reference {name!r}")
        if names or child is not None:
            raise ElabError(
                f"{name!r} is a bigraph definition: it takes no links "
                "and cannot nest"
            )
        return self.big(d.body, self.scope("bigraph", d, list(args)))

    def scope(self, what: str, d, args: list) -> dict:
        """The constants, with the parameters of definition `d` bound to
        `args`."""
        if len(args) != len(d.params):
            raise ElabError(
                f"{what} {d.name} takes {len(d.params)} argument(s), got {len(args)}"
            )
        return {**self.consts, **dict(zip(d.params, args))}

    # -- system block ----------------------------------------------------------

    def expand_items(self, items) -> list:
        """Expand comprehensions into concrete (name, args, reward, pos)
        rows, each at the position of its item."""
        rows = []
        for it in items:
            self.at = it.pos
            bindings = [{}]
            for var, lo, hi in it.ranges:
                lo_v = _eval_int(lo, self.consts, f"range bound for {var}")
                hi_v = _eval_int(hi, self.consts, f"range bound for {var}")
                bindings = [
                    {**b, var: v}
                    for b in bindings
                    for v in range(lo_v, hi_v + 1)
                ]
            for b in bindings:
                scope = {**self.consts, **b}
                args = [_eval_num(a, scope) for a in it.args]
                reward = (
                    _eval_num(it.reward, scope) if it.reward is not None else None
                )
                rows.append((it.name, args, reward, it.pos))
        return rows

    def rule_instance(self, name: str, args: list, kind: str) -> WeightedRule:
        d = self.reacts.get(name)
        if d is None:
            raise ElabError(f"unknown rule {name!r}")
        scope = self.scope("rule", d, args)
        self.at = d.pos
        if d.weight is None:
            if kind != "brs":
                raise ElabError(
                    f"rule {name}: a {kind} rule needs a weight (-[expr]->)"
                )
            weight = Fraction(1)
        else:
            weight = Fraction(_eval_num(d.weight, scope))
            if weight < 0:
                raise ElabError(f"rule {name}: weight {weight} is negative")
        redex = self.big(d.redex, scope)
        reactum = self.big(d.reactum, scope)
        return WeightedRule(instance_name(name, args), redex, reactum, weight)

    def system(self) -> SystemSpec:
        s = self.model.system
        self.at = s.pos
        init_def = self.bigs.get(s.init)
        if init_def is None:
            raise ElabError(f"initial bigraph {s.init!r} is not declared")
        if init_def.params:
            raise ElabError("the initial bigraph cannot be parameterised")
        self.at = init_def.pos
        initial = self.big(init_def.body, dict(self.consts))

        rules: dict[str, WeightedRule] = {}
        for name, args, _, pos in self.expand_items(s.rules):
            self.at = pos
            label = instance_name(name, args)
            if label in rules:
                raise ElabError(f"rule {label} listed twice")
            rules[label] = self.rule_instance(name, args, s.kind)

        predicates = []
        seen_preds = set()
        for name, args, reward, pos in self.expand_items(s.preds):
            self.at = pos
            label = instance_name(name, args)
            if label in seen_preds:
                raise ElabError(f"predicate {label} listed twice")
            seen_preds.add(label)
            self.at = self.bigs[name].pos if name in self.bigs else pos
            pattern = self.atom(name, args)
            predicates.append(
                PredicateDecl(label, pattern, Fraction(reward or 0))
            )

        actions = []
        for a in s.actions:
            self.at = a.pos
            if any(b.name == a.name for b in actions):
                raise ElabError(f"duplicate action {a.name!r}")
            reward = (
                Fraction(_eval_num(a.reward, self.consts))
                if a.reward is not None
                else Fraction(0)
            )
            members = []
            for name, args, _, pos in self.expand_items(a.rules):
                self.at = pos
                label = instance_name(name, args)
                rule = rules.get(label)
                if rule is None:
                    raise ElabError(
                        f"action {a.name} references {label}, which is not in "
                        "the rules list"
                    )
                if rule not in members:
                    members.append(rule)
            actions.append(ActionDecl(a.name, tuple(members), reward))

        self.at = s.pos
        return SystemSpec(
            kind=s.kind,
            signature=self.signature,
            initial=initial,
            rules=tuple(rules.values()),
            actions=tuple(actions),
            predicates=tuple(predicates),
        )


def elaborate(model: Model) -> SystemSpec:
    """Fold constants, instantiate parameterised definitions at every
    argument tuple the system block uses, and check every rule and
    predicate (solid redexes, equal interfaces, finite nonnegative
    weights, ground initial state).  Every error but a `ParseError`, which
    has its own position, is located at the declaration or system-block
    item being elaborated, or for a rule instance or predicate, at the
    definition it instantiates; it keeps its type and attributes."""
    elab = _Elaborator(model)
    try:
        return elab.run()
    except ParseError:
        raise
    except BigraphError as exc:
        err = exc
    except RecursionError:
        # a chain of definitions each nesting the one before
        err = ElabError("bigraph definitions nested too deeply")
    line, col = elab.at
    err.args = (f"{line}:{col}: {err}",)
    raise err from None


_NEWLINE_RE = re.compile(r"\r\n?|\n")


def load_model(path) -> SystemSpec:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        source = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _NEWLINE_RE.split(data[: exc.start].decode("utf-8"))
        raise ParseError(
            f"byte 0x{data[exc.start]:02x} is not valid UTF-8",
            len(lines),
            len(lines[-1]) + 1,
        ) from None
    # newlines as a text-mode read translates them
    return elaborate(parse(_NEWLINE_RE.sub("\n", source)))
