"""Parser and elaborator for the `.big` modeling language."""

from fractions import Fraction
from pathlib import Path

import pytest

from bigrs.bigraph import ShapeError, SolidityError, is_solid
from bigrs.canon import canonical_key
from bigrs.language import (
    ElabError,
    ParseError,
    elaborate,
    load_model,
    parse,
)
from bigrs.system import StateCapError, SystemError_, build_transition_system
from oracles import pretty

LISTING_STYLE_PBRS = """
# entities with no links
ctrl A = 0;
ctrl I = 0;

float w_infect = 5.0;

# probabilistic rule with weight w_infect
react infect = A.id -[w_infect]-> I.id;

# par(n, B) places n copies side by side in one region
big all_infected = par(9, I.id);
big start = A.(1) | I.(1);

begin pbrs
  init = start;
  rules = [infect];
  preds = [all_infected];
end
"""

CLOSURE_RULE = """
ctrl Bud = 1;
ctrl Coat = 1;
ctrl Gate = 1;

float rc = 1.0;

react coat =
  Bud{x}.(id | Gate{z}) | /y Coat{y}
  -[rc]->
  Bud{x}.(id | Gate{z}) | Coat{x};

big start = /x /z (Bud{x}.(Gate{z}) | /y Coat{y} | /y Coat{y});

begin sbrs
  init = start;
  rules = [coat];
end
"""


def test_listing_style_model_parses_and_elaborates():
    spec = elaborate(parse(LISTING_STYLE_PBRS))
    assert spec.kind == "pbrs"
    (infect,) = spec.rules
    assert infect.weight == Fraction(5)
    assert spec.predicates[0].name == "all_infected"
    assert len(spec.predicates[0].pattern.nodes) == 9


def test_closure_on_redex_left_side():
    spec = elaborate(parse(CLOSURE_RULE))
    (coat,) = spec.rules
    assert is_solid(coat.redex)
    assert len(coat.redex.edges()) == 1  # the /y closure
    assert coat.redex.outer.names == frozenset(["x", "z"])


def test_empty_source_is_an_error():
    with pytest.raises(ParseError, match="empty model"):
        parse("")
    with pytest.raises(ParseError):
        parse("   \n# just a comment\n")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("ctrl A = ;\nbegin pbrs init = a; rules = [r]; end")
    assert err.value.line == 1
    assert err.value.col >= 9


@pytest.mark.parametrize(
    "src, message",
    [
        ("fun int k = 1;", "1:5: expected 'ctrl', 'big' or 'react', found 'int'"),
        ("ctrl A = 0;\n  fun float w = 1.0;",
         "2:7: expected 'ctrl', 'big' or 'react', found 'float'"),
        ("ctrl A = 0;\nfun", "2:4: expected 'ctrl', 'big' or 'react', found 'end of input'"),
    ],
)
def test_fun_names_every_kind_it_takes(src, message):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == message


def test_unknown_reference_and_duplicates():
    with pytest.raises(ElabError, match="unknown"):
        elaborate(parse("big b = Z.(1);\nbegin pbrs init = b; rules = [r]; end"))
    with pytest.raises(ParseError, match="duplicate"):
        elaborate(
            parse(
                "ctrl A = 0;\nctrl A = 1;\n"
                "big b = A;\nbegin pbrs init = b; rules = [r]; end"
            )
        )


def test_arity_mismatch_and_atomic_children():
    src = "ctrl A = 0;\nbig b = A{x};\nbegin brs init = b; rules = [r]; end"
    with pytest.raises(Exception, match="arity"):
        elaborate(parse(src))
    src = (
        "atomic ctrl A = 0;\nctrl B = 0;\nbig b = A.(B);\n"
        "begin brs init = b; rules = [r]; end"
    )
    with pytest.raises(Exception, match="atomic"):
        elaborate(parse(src))


def test_bare_site_redex_is_solidity_error():
    src = (
        "ctrl A = 0;\nbig b = A;\nreact r = id -[1.0]-> id;\n"
        "begin pbrs init = b; rules = [r]; end"
    )
    with pytest.raises(SolidityError):
        elaborate(parse(src))


def test_negative_weight_rejected():
    src = (
        "ctrl A = 0;\nctrl B = 0;\nbig b = A;\n"
        "react r = A -[0.0 - 2.0]-> B;\n"
        "begin pbrs init = b; rules = [r]; end"
    )
    with pytest.raises(ElabError, match="negative"):
        elaborate(parse(src))


def test_plain_arrow_only_in_brs():
    src = (
        "ctrl A = 0;\nctrl B = 0;\nbig b = A;\nreact r = A --> B;\n"
        "begin {kind} init = b; rules = [r]; end"
    )
    elaborate(parse(src.format(kind="brs")))
    with pytest.raises(ElabError, match="weight"):
        elaborate(parse(src.format(kind="pbrs")))


def test_integer_valued_decimal_arity_is_an_integer():
    src = "ctrl A = 2.0;\nbig s = /x /y A{x,y};\nbegin brs init = s; rules = []; end"
    assert elaborate(parse(src)).signature["A"].arity == 2


def test_integer_valued_exponent_literal_is_an_int_constant():
    src = (
        "int n = 1e3;\nctrl A = 0;\nbig s = par(n, A);\n"
        "begin brs init = s; rules = []; end"
    )
    assert len(elaborate(parse(src)).initial.nodes) == 1000


def test_integer_valued_decimal_argument_names_the_integer_instance():
    src = """
ctrl A = 0;
fun react r(k) = A -[k]-> A;
big s = A;
begin abrs
  init = s;
  rules = [r(2.0)];
  actions = [go = {r(2)}];
end
"""
    spec = elaborate(parse(src))
    assert [r.name for r in spec.rules] == ["r(2)"]
    assert [r.name for r in spec.actions[0].rules] == ["r(2)"]


LOCATED_ERRORS = {
    "arity": (
        "ctrl B = 0;\nctrl A = 2.5;\nbig s = B;\nbegin brs init = s; rules = []; end",
        "2:1: arity of A must be an integer, got 5/2",
    ),
    "bigraph reference": (
        "ctrl A = 0;\nbig t = A;\n  big s = B;\nbegin brs init = s; rules = []; end",
        "3:3: unknown bigraph reference 'B'",
    ),
    "rule": (
        "ctrl A = 0;\nbig s = A;\nreact r = A --> A;\n"
        "begin brs\n  init = s;\n  rules = [r, q];\nend",
        "6:15: unknown rule 'q'",
    ),
    "division": (
        "ctrl A = 0;\nbig s = A;\n  react r = A -[1/0]-> A;\n"
        "begin pbrs init = s; rules = [r]; end",
        "3:3: division by zero in a model expression",
    ),
    "weight": (
        "ctrl A = 0;\nbig s = A;\nreact q = A --> A;\n react r = A --> A;\n"
        "begin pbrs init = s; rules = [r]; end",
        "4:2: rule r: a pbrs rule needs a weight (-[expr]->)",
    ),
    "unknown name with links": (
        "ctrl A = 0;\nbig t = A;\n  big s = X{a};\nbegin brs init = s; rules = []; end",
        "3:3: unknown bigraph reference 'X'",
    ),
    "unknown nest head": (
        "ctrl A = 0;\n big s = X.(A);\nbegin brs init = s; rules = []; end",
        "2:2: unknown bigraph reference 'X'",
    ),
    "nest under a definition": (
        "ctrl A = 0;\nbig b = A;\nbig s = b.(A);\nbegin brs init = s; rules = []; end",
        "3:1: 'b' is a bigraph definition: it takes no links and cannot nest",
    ),
    "links on a definition": (
        "ctrl A = 0;\nbig b = A;\n big s = b{x};\nbegin brs init = s; rules = []; end",
        "3:2: 'b' is a bigraph definition: it takes no links and cannot nest",
    ),
    "definition argument count": (
        "ctrl A = 0;\nfun big b(n) = par(n, A);\nbig s = b(1, 2);\n"
        "begin brs init = s; rules = []; end",
        "3:1: bigraph b takes 1 argument(s), got 2",
    ),
    "rule listed twice": (
        "ctrl A = 0;\nbig s = A;\nfun react r(n) = A --> A;\n"
        "begin brs\n  init = s;\n  rules = [r(i) for i in 1:2, r(2)];\nend",
        "6:31: rule r(2) listed twice",
    ),
    "predicate listed twice": (
        "ctrl A = 0;\nbig s = A;\nreact r = A --> A;\n"
        "begin brs\n  init = s;\n  rules = [r];\n  preds = [s, s];\nend",
        "7:15: predicate s listed twice",
    ),
    "duplicate action": (
        "ctrl A = 0;\nbig s = A;\nreact r = A -[1]-> A;\n"
        "begin abrs\n  init = s;\n  rules = [r];\n  actions = [a = {r}, a = {r}];\nend",
        "7:23: duplicate action 'a'",
    ),
    "action member": (
        "ctrl A = 0;\nbig s = A;\nreact r = A -[1]-> A;\nreact q = A -[1]-> A;\n"
        "begin abrs\n  init = s;\n  rules = [r];\n  actions = [a = {r, q}];\nend",
        "8:22: action a references q, which is not in the rules list",
    ),
}


@pytest.mark.parametrize("case", sorted(LOCATED_ERRORS))
def test_elaboration_error_has_location(case):
    src, message = LOCATED_ERRORS[case]
    with pytest.raises(ElabError) as err:
        elaborate(parse(src))
    assert str(err.value) == message


LOCATED_BIGRAPH_ERRORS = {
    "shape": (
        "ctrl A = 0; big b = A{x};\nbegin brs init = b; rules = []; end",
        ShapeError,
        "1:13: control A has arity 0, got 1 name(s)",
    ),
    "solidity": (
        "ctrl A = 0;\nbig s = A;\nreact r = id -[1.0]-> id;\n"
        "begin pbrs init = s; rules = [r]; end",
        SolidityError,
        "3:1: redex of rule r is not solid: every region contains at least "
        "one node (region 0 has none); no site has a region as parent (site 0)",
    ),
    "system": (
        "ctrl A = 0;\nbig s = A;\nreact r = A -[1]-> A;\n"
        "begin abrs init = s; rules = [r]; end",
        SystemError_,
        "4:1: an abrs needs at least one action",
    ),
}


@pytest.mark.parametrize("case", sorted(LOCATED_BIGRAPH_ERRORS))
def test_bigraph_error_has_location_and_keeps_its_type(case):
    src, kind, message = LOCATED_BIGRAPH_ERRORS[case]
    with pytest.raises(kind) as err:
        elaborate(parse(src))
    assert type(err.value) is kind
    assert str(err.value) == message


def test_located_solidity_error_keeps_its_violations():
    src, _, _ = LOCATED_BIGRAPH_ERRORS["solidity"]
    with pytest.raises(SolidityError) as err:
        elaborate(parse(src))
    assert err.value.violations == [
        "every region contains at least one node (region 0 has none)",
        "no site has a region as parent (site 0)",
    ]


def test_parse_error_raised_while_elaborating_is_located_once():
    with pytest.raises(ParseError) as err:
        elaborate(parse("ctrl A = 0;\n  big A = A;\nbegin brs init = A; rules = []; end"))
    assert str(err.value) == "2:3: duplicate declaration of 'A'"


def test_comprehension_expands_product():
    src = """
ctrl Sensor = 0;
fun ctrl Buffer(x) = 0;
fun ctrl Iden(i) = 0;
float w_suc = 5.0;
fun react receive(x,i) =
  Sensor.(Buffer(x) | Iden(i)) -[w_suc]-> Sensor.(Buffer(x + 1) | Iden(i));
big start = Sensor.(Buffer(0) | Iden(1));
begin pbrs
  init = start;
  rules = [receive(x,i) for x in 0:3, i in 1:2];
end
"""
    spec = elaborate(parse(src))
    assert len(spec.rules) == 8
    assert {r.name for r in spec.rules} == {
        f"receive({x},{i})" for x in range(4) for i in (1, 2)
    }


def test_predicate_family_expansion():
    src = """
ctrl V = 1;
atomic ctrl Particle = 0;
big start = /x V{x};
fun big particles(n) = V{x}.(par(n, Particle));
react r = V{x}.id -[1.0]-> V{x}.(id | Particle);
begin pbrs
  init = start;
  rules = [r];
  preds = [particles(n) for n in 0:40];
end
"""
    spec = elaborate(parse(src))
    assert len(spec.predicates) == 41
    assert spec.predicates[0].name == "particles(0)"
    assert spec.predicates[40].name == "particles(40)"


def test_par_equals_iterated_merge():
    template = "ctrl A = 0;\nbig b = {expr};\nbegin brs init = b; rules = []; end"

    def initial(expr):
        return elaborate(parse(template.format(expr=expr))).initial

    for n in range(6):
        merged = " | ".join(["A"] * n) if n else "1"
        assert canonical_key(initial(f"par({n}, A)")) == canonical_key(
            initial(merged)
        )


def test_nest_child_may_close_a_name():
    template = (
        "ctrl A = 0;\nctrl B = 1;\nctrl C = 2;\nbig b = {expr};\n"
        "begin brs init = b; rules = []; end"
    )

    def initial(expr):
        return elaborate(parse(template.format(expr=expr))).initial

    for bare, bracketed in (
        ("A./x B{x}", "A.(/x B{x})"),
        ("A./x /y C{x,y}", "A.(/x (/y C{x,y}))"),
        ("A.A./x B{x} | B{z}", "A.(A.(/x B{x})) | B{z}"),
    ):
        assert canonical_key(initial(bare)) == canonical_key(initial(bracketed))


NEST_MODEL = (
    "ctrl A = 0;\nctrl B = 0;\nctrl C = 0;\nbig s = {expr};\n"
    "begin brs init = s; rules = []; end"
)


@pytest.mark.parametrize("expr", ["(A.B).C", "(A | B).C", "1.A", "id.A", "par(2, A).B"])
def test_only_an_ion_or_reference_can_nest(expr):
    # a head that already has a child would otherwise lose it: (A.B).C
    # read as A.C
    with pytest.raises(ParseError, match="only an ion or reference can nest") as err:
        parse(NEST_MODEL.format(expr=expr))
    assert (err.value.line, err.value.col) == (4, 9)


def test_parenthesised_ion_nests():
    spec = elaborate(parse(NEST_MODEL.format(expr="(A).B")))
    nested = elaborate(parse(NEST_MODEL.format(expr="A.B"))).initial
    assert canonical_key(spec.initial) == canonical_key(nested)


def test_round_trip_fixed_sources():
    for src in (LISTING_STYLE_PBRS, CLOSURE_RULE):
        ast = parse(src)
        assert parse(pretty(ast)) == ast


def model_corpus(models_dir: Path) -> list:
    """The shipped models and the benchmark's, read only."""
    bench_models = sorted((models_dir.parent / "bench" / "models").glob("*.big"))
    assert bench_models
    return sorted(models_dir.glob("*.big")) + bench_models


def test_round_trip_model_corpus(models_dir: Path):
    for path in model_corpus(models_dir):
        ast = parse(path.read_text())
        assert parse(pretty(ast)) == ast, path.name


def test_post_elaboration_sweep_on_corpus(models_dir: Path):
    # every elaborated rule satisfies the reaction-rule checks
    for path in model_corpus(models_dir):
        spec = load_model(path)
        assert spec.initial.is_ground()
        for rule in spec.rules:
            assert is_solid(rule.redex), f"{path.name}:{rule.name}"
            assert rule.redex.inner.width == rule.reactum.inner.width
            assert rule.redex.outer.width == rule.reactum.outer.width
            assert rule.redex.outer.names == rule.reactum.outer.names
            assert rule.weight >= 0
        for pred in spec.predicates:
            assert is_solid(pred.pattern)
        if spec.kind == "abrs":
            covered = {r.name for a in spec.actions for r in a.rules}
            assert {r.name for r in spec.rules} <= covered


@pytest.mark.parametrize("path", [
    *(f"models/{m}.big" for m in ("budding", "mobile_sink", "send_mdp", "virus", "wsn")),
    "bench/models/mobile_sink2.big",
])
def test_model_shares_one_signature(models_dir, path):
    # the initial state, every rule and predicate pattern and every kept
    # state of the closure (its first 200 states) hold one signature object
    spec = load_model(models_dir.parent / path)
    sig = spec.signature
    patterns = [spec.initial] + [p.pattern for p in spec.predicates]
    patterns += [b for rule in spec.rules for b in (rule.redex, rule.reactum)]
    assert all(b.signature is sig for b in patterns)
    try:
        states = build_transition_system(spec, max_states=200).states
    except StateCapError as cap:
        states = cap.partial.states
    assert len(states) > 1
    assert all(state.signature is sig for _, state in states)


def test_model_without_controls_shares_one_signature():
    spec = elaborate(parse("big s = 1 | 1;\nbegin brs init = s; rules = []; end"))
    assert spec.initial.signature is spec.signature


def test_action_rewards_elaborate(models_dir):
    spec = load_model(models_dir / "mobile_sink.big")
    rewards = {a.name: a.reward for a in spec.actions}
    assert rewards["a_receive_full"] == 1
    assert rewards["a_send_mid"] == 2
    assert rewards["a_move"] == 0
    full = next(a for a in spec.actions if a.name == "a_receive_full")
    assert [r.name for r in full.rules] == ["rcv_full"]


def test_action_reference_must_be_listed():
    src = """
ctrl A = 0;
ctrl B = 0;
big b = A;
react r = A -[1.0]-> B;
react s = B -[1.0]-> A;
begin abrs
  init = b;
  rules = [r, s];
  actions = [go = {r, s, t}];
end
"""
    with pytest.raises(ElabError, match="not in"):
        elaborate(parse(src))


def test_init_must_be_declared_and_ground():
    with pytest.raises(ElabError, match="not declared"):
        elaborate(parse("ctrl A = 0;\nbegin pbrs init = b; rules = []; end"))
    src = (
        "ctrl A = 0;\nbig b = A.id;\nreact r = A -[1.0]-> A;\n"
        "begin pbrs init = b; rules = [r]; end"
    )
    with pytest.raises(Exception, match="ground"):
        elaborate(parse(src))


def nested_ions(depth: int) -> str:
    """A model whose initial state is `depth` ions nested in one chain."""
    return "ctrl A = 0;\nbig s = " + "A." * depth + "1;\nbegin brs init = s; rules = []; end"


def test_nested_ions_within_the_limit_load():
    spec = elaborate(parse(nested_ions(400)))
    assert len(spec.initial.nodes) == 400


def parenthesised(depth: int, numeric: bool) -> str:
    """A model with `depth` parentheses around a bigraph expression, or
    around a numeric one."""
    def wrap(e):
        return "(" * depth + e + ")" * depth

    if numeric:
        return f"ctrl A = 0;\nint k = {wrap('1')};\nbig s = A;\nbegin brs init = s; rules = []; end"
    return f"ctrl A = 0;\nbig s = {wrap('A')};\nbegin brs init = s; rules = []; end"


@pytest.mark.parametrize("depth, numeric", [(150, False), (250, True)])
def test_parenthesised_nesting_within_the_limit_loads(depth, numeric):
    # one Python frame per precedence level: an extra one per level makes
    # both depths exceed the recursion limit under pytest
    spec = elaborate(parse(parenthesised(depth, numeric)))
    assert len(spec.initial.nodes) == 1


@pytest.mark.parametrize("depth", [800, 5000])
def test_deep_nesting_is_a_parse_error(depth):
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse(nested_ions(depth))
    assert err.value.line == 2 and err.value.col > 1


def definition_chain(length: int, use: str = "init") -> str:
    """`length` definitions, each nesting the one before, the last used by
    the initial state, by the redex of a rule or as a predicate."""
    chain = ["ctrl A = 0;", "big b0 = 1;"]
    chain += [f"big b{i} = A.b{i - 1};" for i in range(1, length + 1)]
    if use == "init":
        chain.append(f"begin brs init = b{length}; rules = []; end")
    elif use == "rule":
        chain.append(f"react r = A.b{length} --> A.1;")
        chain.append("begin brs init = b0; rules = [r]; end")
    else:
        chain.append(f"begin brs init = b0; rules = []; preds = [b{length}]; end")
    return "\n".join(chain)


def test_deep_definition_chain_is_an_elab_error():
    with pytest.raises(ElabError, match="nested too deeply"):
        elaborate(parse(definition_chain(1000)))


@pytest.mark.parametrize(
    "use, where", [("init", "1002:1"), ("rule", "1003:1"), ("pred", "1002:1")]
)
def test_deep_definition_chain_error_has_location(use, where):
    # where the outermost definition being elaborated starts
    with pytest.raises(ElabError) as err:
        elaborate(parse(definition_chain(1000, use)))
    assert str(err.value).startswith(where + ": ")


def test_non_utf8_file_is_a_parse_error_at_the_byte(tmp_path):
    path = tmp_path / "bad.big"
    path.write_bytes(b"ctrl A = 0;\r\n# caf\xc3\xa9 \xff\nbig s = A;\n")
    with pytest.raises(ParseError) as err:
        load_model(path)
    assert (err.value.line, err.value.col) == (2, 8)
    assert str(err.value) == "2:8: byte 0xff is not valid UTF-8"


def test_crlf_and_cr_newlines_load_like_lf(models_dir, tmp_path):
    source = (models_dir / "wsn.big").read_bytes()
    ref = load_model(models_dir / "wsn.big")
    for newline in (b"\r\n", b"\r"):
        path = tmp_path / "wsn.big"
        path.write_bytes(source.replace(b"\n", newline))
        spec = load_model(path)
        assert canonical_key(spec.initial) == canonical_key(ref.initial)
        assert [r.name for r in spec.rules] == [r.name for r in ref.rules]
        # line numbers count a lone CR as a newline, as a text-mode read does
        path.write_bytes(newline.join([b"ctrl A = 0;", b"", b"big s = ;"]))
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert err.value.line == 3
