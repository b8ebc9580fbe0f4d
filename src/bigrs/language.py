"""The `.big` modeling language: parser and elaborator.

Covers control declarations (plain, atomic, parameterised), int/float
constants with arithmetic, bigraph and rule definitions (plain and
parameterised ``fun`` forms), and a system block selecting the kind and
listing the initial state, rules, predicates and (for an abrs) actions.

Comprehensions ``item for v in a:b`` expand over inclusive integer
ranges; the system-block syntax is this tool's own concretization and is
spelled out in docs/grammar.ebnf.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bigraph import (
    BigraphError,
    ControlDecl,
    close_name,
    hole,
    ion,
    merge_parallel,
    norm_number,
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


def _pos_field():
    return field(default=(0, 0), compare=False, repr=False)


@dataclass
class Num:
    value: str  # literal text, exact
    pos: tuple = _pos_field()


@dataclass
class Ref:
    name: str
    pos: tuple = _pos_field()


@dataclass
class BinOp:
    op: str
    left: object
    right: object
    pos: tuple = _pos_field()


@dataclass
class Neg:
    arg: object
    pos: tuple = _pos_field()


@dataclass
class BUnit:
    pos: tuple = _pos_field()


@dataclass
class BSite:
    pos: tuple = _pos_field()


@dataclass
class BIon:
    ctrl: str
    params: list
    names: list
    pos: tuple = _pos_field()


@dataclass
class BRef:
    name: str
    args: list
    pos: tuple = _pos_field()


@dataclass
class BNest:
    head: object  # BIon | BRef
    child: object
    pos: tuple = _pos_field()


@dataclass
class BMerge:
    parts: list
    pos: tuple = _pos_field()


@dataclass
class BParallel:
    parts: list
    pos: tuple = _pos_field()


@dataclass
class BClose:
    name: str
    body: object
    pos: tuple = _pos_field()


@dataclass
class BRepl:  # par(n, b)
    count: object
    body: object
    pos: tuple = _pos_field()


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
    pos: tuple = _pos_field()


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

    # -- model -------------------------------------------------------------

    def model(self) -> Model:
        pos = self.pos()
        if self.at("eof"):
            raise ParseError("empty model", *pos)
        decls = []
        while not self.at("begin"):
            if self.at("eof"):
                raise ParseError("missing 'begin <kind> ... end' block", *self.pos())
            decls.append(self.decl())
        system = self.system_block()
        self.expect("eof")
        return Model(decls, system, pos)

    def decl(self):
        pos = self.pos()
        atomic = self.eat("atomic")
        if self.eat("fun"):
            if self.eat("ctrl"):
                return self.ctrl_def(atomic, parametrised=True, pos=pos)
            if atomic:
                raise ParseError("'atomic' only applies to controls", *pos)
            if self.eat("big"):
                return self.big_def(parametrised=True, pos=pos)
            self.expect("react")
            return self.react_def(parametrised=True, pos=pos)
        if self.eat("ctrl"):
            return self.ctrl_def(atomic, parametrised=False, pos=pos)
        if atomic:
            raise ParseError("'atomic' only applies to controls", *pos)
        if self.at("int") or self.at("float"):
            kind = self.next().kind
            name = self.expect("name").text
            self.expect("=")
            value = self.numexp()
            self.expect(";")
            return ConstDef(kind, name, value, pos)
        if self.eat("big"):
            return self.big_def(parametrised=False, pos=pos)
        if self.eat("react"):
            return self.react_def(parametrised=False, pos=pos)
        t = self.peek()
        raise ParseError(f"expected a declaration, found {t.text!r}", t.line, t.col)

    def param_list(self) -> list:
        self.expect("(")
        params = [self.expect("name").text]
        while self.eat(","):
            params.append(self.expect("name").text)
        self.expect(")")
        return params

    def ctrl_def(self, atomic: bool, parametrised: bool, pos) -> CtrlDef:
        name = self.expect("name").text
        params = self.param_list() if parametrised else []
        self.expect("=")
        arity = self.numexp()
        self.expect(";")
        return CtrlDef(name, params, arity, atomic, pos)

    def big_def(self, parametrised: bool, pos) -> BigDef:
        name = self.expect("name").text
        params = self.param_list() if parametrised else []
        self.expect("=")
        body = self.bexp()
        self.expect(";")
        return BigDef(name, params, body, pos)

    def react_def(self, parametrised: bool, pos) -> ReactDef:
        name = self.expect("name").text
        params = self.param_list() if parametrised else []
        self.expect("=")
        redex = self.bexp()
        if self.eat("-->"):
            weight = None
        else:
            self.expect("-[")
            weight = self.numexp()
            self.expect("]->")
        reactum = self.bexp()
        self.expect(";")
        return ReactDef(name, params, redex, reactum, weight, pos)

    # -- bigraph expressions -------------------------------------------------

    def bexp(self):
        pos = self.pos()
        parts = [self.bmerge()]
        while self.eat("||"):
            parts.append(self.bmerge())
        return parts[0] if len(parts) == 1 else BParallel(parts, pos)

    def bmerge(self):
        pos = self.pos()
        parts = [self.bterm()]
        while self.eat("|"):
            parts.append(self.bterm())
        return parts[0] if len(parts) == 1 else BMerge(parts, pos)

    def bterm(self):
        pos = self.pos()
        if self.eat("/"):
            name = self.expect("name").text
            return BClose(name, self.bterm(), pos)
        return self.bnest()

    def bnest(self):
        pos = self.pos()
        head = self.batom()
        if self.eat("."):
            if not isinstance(head, (BIon, BRef)):
                raise ParseError("only an ion or reference can nest", *pos)
            return BNest(head, self.bterm(), pos)
        return head

    def batom(self):
        t = self.peek()
        pos = (t.line, t.col)
        if self.eat("id"):
            return BSite(pos)
        if t.kind == "num":
            if t.text != "1":
                raise ParseError(
                    f"number {t.text!r} is not a bigraph (only '1' is)", *pos
                )
            self.next()
            return BUnit(pos)
        if self.eat("par"):
            self.expect("(")
            count = self.numexp()
            self.expect(",")
            body = self.bexp()
            self.expect(")")
            return BRepl(count, body, pos)
        if self.eat("("):
            inner = self.bexp()
            self.expect(")")
            return inner
        if t.kind == "name":
            name = self.next().text
            args = []
            if self.at("("):
                self.next()
                args.append(self.numexp())
                while self.eat(","):
                    args.append(self.numexp())
                self.expect(")")
            names = []
            braced = False
            if self.eat("{"):
                braced = True
                names.append(self.expect("name").text)
                while self.eat(","):
                    names.append(self.expect("name").text)
                self.expect("}")
            if braced or args:
                return BIon(name, args, names, pos)
            return BRef(name, [], pos)
        raise ParseError(
            f"expected a bigraph expression, found {t.text or 'end of input'!r}",
            *pos,
        )

    # -- numeric expressions -------------------------------------------------

    def numexp(self):
        pos = self.pos()
        left = self.numterm()
        while self.at("+") or self.at("-"):
            op = self.next().kind
            left = BinOp(op, left, self.numterm(), pos)
        return left

    def numterm(self):
        pos = self.pos()
        left = self.numfactor()
        while self.at("*") or self.at("/"):
            op = self.next().kind
            left = BinOp(op, left, self.numfactor(), pos)
        return left

    def numfactor(self):
        t = self.peek()
        pos = (t.line, t.col)
        if self.eat("-"):
            return Neg(self.numfactor(), pos)
        if t.kind == "num":
            self.next()
            return Num(t.text, pos)
        if t.kind == "name":
            self.next()
            return Ref(t.text, pos)
        if self.eat("("):
            inner = self.numexp()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected a numeric expression, found {t.text or 'end of input'!r}",
            *pos,
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
        init = None
        rules = None
        preds = None
        actions = None
        while not self.eat("end"):
            t = self.peek()
            if self.eat("init"):
                if init is not None:
                    raise ParseError("duplicate 'init' clause", t.line, t.col)
                self.expect("=")
                init = self.expect("name").text
                self.expect(";")
            elif self.eat("rules"):
                if rules is not None:
                    raise ParseError("duplicate 'rules' clause", t.line, t.col)
                self.expect("=")
                rules = self.item_list("[", "]")
                self.expect(";")
            elif self.eat("preds"):
                if preds is not None:
                    raise ParseError("duplicate 'preds' clause", t.line, t.col)
                self.expect("=")
                preds = self.item_list("[", "]", rewards=True)
                self.expect(";")
            elif self.eat("actions"):
                if actions is not None:
                    raise ParseError("duplicate 'actions' clause", t.line, t.col)
                self.expect("=")
                actions = self.action_list()
                self.expect(";")
            else:
                raise ParseError(
                    f"expected init/rules/preds/actions/end, found {t.text!r}",
                    t.line, t.col,
                )
        if init is None:
            raise ParseError("system block has no 'init' clause", *pos)
        if rules is None:
            raise ParseError("system block has no 'rules' clause", *pos)
        return SystemBlock(kind, init, rules, preds or [], actions or [], pos)

    def item_list(self, open_tok: str, close_tok: str, rewards: bool = False):
        self.expect(open_tok)
        items = []
        if not self.at(close_tok):
            items.append(self.item(rewards))
            while self.eat(","):
                items.append(self.item(rewards))
        self.expect(close_tok)
        return items

    def item(self, rewards: bool = False) -> Item:
        t = self.expect("name")
        args = []
        if self.eat("("):
            args.append(self.numexp())
            while self.eat(","):
                args.append(self.numexp())
            self.expect(")")
        reward = None
        if rewards and self.eat("["):
            reward = self.numexp()
            self.expect("]")
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
        var = self.expect("name").text
        self.expect("in")
        lo = self.numexp()
        self.expect(":")
        hi = self.numexp()
        return (var, lo, hi)

    def action_list(self) -> list:
        self.expect("[")
        actions = []
        if not self.at("]"):
            actions.append(self.action_item())
            while self.eat(","):
                actions.append(self.action_item())
        self.expect("]")
        return actions

    def action_item(self) -> ActionItem:
        t = self.expect("name")
        reward = None
        if self.eat("["):
            reward = self.numexp()
            self.expect("]")
        self.expect("=")
        rules = self.item_list("{", "}")
        return ActionItem(t.text, reward, rules, (t.line, t.col))


def parse(source: str) -> Model:
    """Parse `.big` source into an AST with source positions."""
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


def _render_arg(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def instance_name(name: str, args) -> str:
    if not args:
        return name
    return f"{name}({','.join(_render_arg(a) for a in args)})"


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
        return self.system()

    # -- bigraph evaluation --------------------------------------------------

    def big(self, e, env: dict):
        if isinstance(e, BUnit):
            return unit(self.signature)
        if isinstance(e, BSite):
            return hole(self.signature)
        if isinstance(e, BIon):
            return self.make_ion(e, env, child=None)
        if isinstance(e, BRef):
            return self.resolve_ref(e.name, [], env, e.pos)
        if isinstance(e, BNest):
            child = self.big(e.child, env)
            head = e.head
            if isinstance(head, BRef):
                if head.name in self.signature:
                    head = BIon(head.name, [], [], head.pos)
                elif head.name in self.bigs:
                    raise ElabError(
                        f"cannot nest under {head.name!r}: it is a bigraph "
                        "definition, not a control"
                    )
                else:
                    raise ElabError(f"unknown control {head.name!r}")
            return self.make_ion(head, env, child)
        if isinstance(e, BMerge):
            parts = [self.big(p, env) for p in e.parts]
            out = parts[0]
            for p in parts[1:]:
                out = merge_parallel(out, p)
            return out
        if isinstance(e, BParallel):
            parts = [self.big(p, env) for p in e.parts]
            out = parts[0]
            for p in parts[1:]:
                out = parallel(out, p)
            return out
        if isinstance(e, BClose):
            return close_name(self.big(e.body, env), e.name)
        if isinstance(e, BRepl):
            n = _eval_int(e.count, env, "par() count")
            if n < 0:
                raise ElabError("par() count must be >= 0")
            out = unit(self.signature)
            for _ in range(n):
                out = merge_parallel(out, self.big(e.body, env))
            return out
        raise TypeError(e)

    def make_ion(self, e: BIon, env: dict, child):
        if e.ctrl in self.signature:
            params = tuple(_eval_num(a, env) for a in e.params)
            return ion(self.signature, e.ctrl, params, e.names, child)
        if e.ctrl in self.bigs:
            if e.names or child is not None:
                raise ElabError(
                    f"{e.ctrl!r} is a bigraph definition: it takes no links "
                    "and cannot nest"
                )
            return self.resolve_ref(
                e.ctrl, [_eval_num(a, env) for a in e.params], env, e.pos
            )
        raise ElabError(f"unknown control or bigraph {e.ctrl!r}")

    def resolve_ref(self, name: str, args: list, env: dict, pos):
        if name in self.signature:
            return ion(self.signature, name, tuple(args), [])
        d = self.bigs.get(name)
        if d is None:
            raise ElabError(f"unknown bigraph reference {name!r}")
        if len(args) != len(d.params):
            raise ElabError(
                f"bigraph {name} takes {len(d.params)} argument(s), got {len(args)}"
            )
        scope = dict(self.consts)
        scope.update(zip(d.params, args))
        return self.big(d.body, scope)

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
        if len(args) != len(d.params):
            raise ElabError(
                f"rule {name} takes {len(d.params)} argument(s), got {len(args)}"
            )
        scope = dict(self.consts)
        scope.update(zip(d.params, args))
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
            pattern = self.resolve_ref(name, args, dict(self.consts), pos)
            predicates.append(
                PredicateDecl(label, pattern, Fraction(reward or 0))
            )

        actions = []
        for a in s.actions:
            self.at = a.pos
            if any(b.name == a.name for b in actions):
                raise ElabError("duplicate action name")
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
            signature=dict(self.signature),
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
