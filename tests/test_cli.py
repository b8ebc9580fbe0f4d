"""Command-line behaviour: exit codes, outputs, formats."""

import json
import os
import random
import re
import subprocess
import sys

import pytest

import bigrs
from bigrs.analysis import parse_query, run_query
from bigrs.bigraph import BigraphError
from bigrs.cli import main
from bigrs.language import elaborate, load_model, parse, tokenize
from bigrs.system import StateCapError, build_transition_system


def test_validate_ok(models_dir, capsys):
    assert main(["validate", str(models_dir / "wsn.big")]) == 0
    out = capsys.readouterr().out
    assert "pbrs" in out and "2 rule(s)" in out


def test_validate_model_error(tmp_path, capsys):
    bad = tmp_path / "bad.big"
    bad.write_text("ctrl A = 0;\nbegin pbrs init = nope; rules = []; end\n")
    assert main(["validate", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_integer_valued_decimal_arity(tmp_path, capsys):
    model = tmp_path / "decimal.big"
    model.write_text(
        "ctrl A = 2.0;\nbig s = /x /y A{x,y};\nbegin brs init = s; rules = []; end\n"
    )
    assert main(["validate", str(model)]) == 0
    assert capsys.readouterr().err == ""


def test_validate_elaboration_error_exits_1_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.big"
    bad.write_text("ctrl A = 0;\nbig s = A;\nbegin brs\n  init = s;\n  rules = [q];\nend\n")
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 5:12: unknown rule 'q'\n"


def test_validate_non_utf8_file_exits_1_with_location(tmp_path, capsys):
    rng = random.Random(200)
    bad = tmp_path / "random.big"
    bad.write_bytes(bytes(rng.randrange(256) for _ in range(200)))
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: \d+:\d+: byte 0x[0-9a-f]{2} is not valid UTF-8\n", captured.err
    )


def test_missing_file_is_model_error(capsys):
    assert main(["validate", "no/such/file.big"]) == 1


def test_unknown_flag_exits_2(models_dir):
    with pytest.raises(SystemExit) as exc:
        main(["full", str(models_dir / "wsn.big"), "--frobnicate"])
    assert exc.value.code == 2


def test_check_prints_bounded_reach(models_dir, capsys):
    rc = main(
        ["check", str(models_dir / "wsn.big"), "--query", "P=? [ F<=3 all_failed ]"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "0.4"


def test_check_bad_query(models_dir, capsys):
    rc = main(["check", str(models_dir / "wsn.big"), "--query", "nonsense"])
    assert rc == 1


def test_full_prism_bundle(models_dir, tmp_path, capsys):
    rc = main(
        ["full", str(models_dir / "wsn.big"), "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert (tmp_path / "wsn.tra").exists()
    assert (tmp_path / "wsn.lab").exists()
    assert "states: 4" in out


def test_full_env_default_out(models_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BIGRS_OUT_DIR", str(tmp_path))
    assert main(["full", str(models_dir / "wsn.big")]) == 0
    assert (tmp_path / "wsn.tra").exists()


def test_full_dot_and_json(models_dir, tmp_path, capsys):
    assert (
        main(
            [
                "full",
                str(models_dir / "send_mdp.big"),
                "--out",
                str(tmp_path),
                "--format",
                "dot",
            ]
        )
        == 0
    )
    assert (tmp_path / "send_mdp.dot").read_text().startswith("digraph")
    assert (
        main(
            [
                "full",
                str(models_dir / "send_mdp.big"),
                "--out",
                str(tmp_path),
                "--format",
                "json",
            ]
        )
        == 0
    )
    doc = json.loads((tmp_path / "send_mdp.json").read_text())
    assert doc["kind"] == "abrs" and doc["states"] == 3


def test_validate_bigraph_error_exits_1_with_location(tmp_path, capsys):
    bad = tmp_path / "bad.big"
    bad.write_text(
        "ctrl A = 0;\nbig s = A;\nreact r = id -[1.0]-> id;\n"
        "begin pbrs init = s; rules = [r]; end\n"
    )
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 3:1: redex of rule r is not solid: ")


def test_full_max_states_cap(models_dir, capsys):
    rc = main(["full", str(models_dir / "wsn.big"), "--max-states", "2"])
    assert rc == 1
    assert "cap" in capsys.readouterr().err


def test_refused_prism_export_creates_nothing(models_dir, tmp_path, capsys):
    # a brs has no PRISM transition format, and only an MDP folds action
    # rewards into states: both are refused before anything is written
    model = tmp_path / "plain.big"
    model.write_text(
        "ctrl A = 0;\nctrl B = 0;\nbig s = A;\nreact r = A --> B;\n"
        "begin brs init = s; rules = [r]; end\n"
    )
    out = tmp_path / "out"
    assert main(["full", str(model), "--out", str(out)]) == 1
    assert "no PRISM transition format" in capsys.readouterr().err
    args = ["full", str(models_dir / "wsn.big"), "--out", str(out)]
    assert main(args + ["--rewards-as-states"]) == 1
    assert "MDPs only" in capsys.readouterr().err
    assert not out.exists()


def test_reward_marker_equal_to_a_predicate_exits_1(models_dir, tmp_path, capsys):
    # a predicate charged(2) and the marker of a_reset's reward 2 would
    # share one .lab id (the predicate's state 1 and the marked state 3)
    src = (models_dir / "send_mdp.big").read_text()
    for old, new in (
        ("big sent =", "fun big charged(r) = /x (BSF{x} | SF{x});\nbig sent ="),
        ("preds = [sent]", "preds = [sent, charged(2)]"),
        ("a_reset = {reset}", "a_reset[2] = {reset}"),
    ):
        assert old in src
        src = src.replace(old, new)
    model = tmp_path / "clash.big"
    model.write_text(src)
    args = ["full", str(model), "--out"]
    assert main(args + [str(tmp_path / "plain")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(args + [str(out), "--rewards-as-states"]) == 1
    assert "'charged(2)'" in capsys.readouterr().err
    assert not out.exists()


def test_full_rewards_as_states(models_dir, tmp_path, capsys):
    rc = main(
        [
            "full",
            str(models_dir / "mobile_sink.big"),
            "--out",
            str(tmp_path),
            "--rewards-as-states",
        ]
    )
    assert rc == 0
    # action rewards were folded away: no .trew in the bundle
    assert not (tmp_path / "mobile_sink.trew").exists()
    assert (tmp_path / "mobile_sink.srew").exists()


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_rewards_as_states_with_another_format_exits_2(
    models_dir, tmp_path, capsys, fmt
):
    # refused even for an MDP: only the PRISM bundle folds the rewards
    out = tmp_path / "out"
    args = ["full", str(models_dir / "send_mdp.big"), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--format", fmt, "--rewards-as-states"])
    assert exc.value.code == 2
    assert "--rewards-as-states applies to --format prism" in capsys.readouterr().err
    assert not out.exists()


# a rate beyond the double range, and one that fits but not times two
HUGE_RATES = {
    "weight": ("A", "1e400"),
    "weight-times-count": ("A | A", "1e308"),
}


@pytest.mark.parametrize("fmt", ["prism", "json", "dot"])
@pytest.mark.parametrize("case", HUGE_RATES)
def test_rate_beyond_the_double_range_exits_1(tmp_path, capsys, case, fmt):
    start, rate = HUGE_RATES[case]
    model = tmp_path / "huge.big"
    model.write_text(
        f"ctrl A = 0;\nctrl B = 0;\nbig s = {start};\n"
        f"react r = A -[ {rate} ]-> B;\nbegin sbrs init = s; rules = [r]; end\n"
    )
    out = tmp_path / "out"
    assert main(["full", str(model), "--out", str(out), "--format", fmt]) == 1
    assert capsys.readouterr() == ("", "error: state 0: rate beyond the double range\n")
    assert not out.exists()
    assert main(["sim", str(model), "--steps", "3", "--seed", "1"]) == 1
    assert capsys.readouterr() == ("", "error: state 0: rate beyond the double range\n")


# a positive rate or probability whose double is 0: two sbrs rates of
# 1e-400, the pbrs probability 1 / (1 + 1e400), and 1e-300 / (1e-300 +
# 1e300), whose total is a double
TINY_MASSES = {
    "sbrs-rates": ("sbrs", "1e-400", "1e-400", "rate"),
    "pbrs-probability": ("pbrs", "1", "1e400", "probability"),
    "pbrs-double-total": ("pbrs", "1e-300", "1e300", "probability"),
}


@pytest.mark.parametrize("case", TINY_MASSES)
def test_mass_below_the_double_range_exits_1(tmp_path, capsys, case):
    kind, weight, other, what = TINY_MASSES[case]
    model = tmp_path / "tiny.big"
    model.write_text(
        "ctrl A = 0;\nctrl B = 0;\nctrl C = 0;\nbig s = A;\n"
        f"react r = A -[ {weight} ]-> B;\nreact q = A -[ {other} ]-> C;\n"
        f"begin {kind} init = s; rules = [r, q]; end\n"
    )
    out = tmp_path / "out"
    for fmt in ("prism", "json", "dot"):
        assert main(["full", str(model), "--out", str(out), "--format", fmt]) == 1
        assert capsys.readouterr() == (
            "", f"error: state 0: {what} below the double range\n"
        )
        assert not out.exists()
    # the walk refuses what the closure refuses
    assert main(["sim", str(model), "--steps", "2", "--seed", "1"]) == 1
    assert capsys.readouterr() == (
        "", f"error: state 0: {what} below the double range\n"
    )


@pytest.mark.parametrize("kind", ["pbrs", "sbrs"])
def test_masses_of_one_successor_are_checked_merged(tmp_path, capsys, kind):
    # 1e-400 alone is below the double range, but it adds to the 1 of the
    # other rule's entry for the same successor: the closure builds the
    # row `0 1 1` (and a pbrs the delta on state 1), and the walk takes
    # what the closure builds
    model = tmp_path / "merged.big"
    model.write_text(
        "ctrl A = 0;\nctrl B = 0;\nbig s = A;\n"
        "react r = A -[ 1 ]-> B;\nreact q = A -[ 1e-400 ]-> B;\n"
        f"begin {kind} init = s; rules = [r, q]; end\n"
    )
    out = tmp_path / "out"
    assert main(["full", str(model), "--out", str(out), "--format", "prism"]) == 0
    delta = "1 1 1\n" if kind == "pbrs" else ""
    assert (out / "merged.tra").read_text() == f"2 {1 + bool(delta)}\n0 1 1\n{delta}"
    capsys.readouterr()
    assert main(["sim", str(model), "--steps", "1", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["rule"] for line in lines] == ["r"]


def test_reward_beyond_the_double_range_exits_1(tmp_path, capsys):
    model = tmp_path / "huge.big"
    model.write_text(
        "ctrl A = 0;\nctrl B = 0;\nbig s = A;\nreact r = A -[1.0]-> B;\n"
        "begin abrs init = s; rules = [r]; preds = [s[1e400]];\n"
        "  actions = [go = {r}]; end\n"
    )
    error = ("", "error: state 0: state reward beyond the double range\n")
    assert main(["check", str(model), "--query", "Rmax=? [ C<=3 ]"]) == 1
    assert capsys.readouterr() == error
    out = tmp_path / "out"
    assert main(["full", str(model), "--out", str(out), "--format", "json"]) == 1
    assert capsys.readouterr() == error
    assert not out.exists()
    # the reward of an action that no state enables is checked too
    model.write_text(
        "ctrl A = 0;\nctrl B = 0;\nctrl C = 0;\nbig s = A;\n"
        "react r = A -[1.0]-> B;\nreact q = C -[1.0]-> B;\n"
        "begin abrs init = s; rules = [r, q];\n"
        "  actions = [go = {r}, idle[1e400] = {q}]; end\n"
    )
    assert main(["full", str(model), "--out", str(out), "--format", "json"]) == 1
    assert capsys.readouterr() == (
        "", "error: action idle: reward beyond the double range\n")
    assert not out.exists()


def test_build_export_and_sim_never_load_numpy(models_dir, tmp_path):
    # in a fresh interpreter, as this one may have loaded numpy already:
    # the unbounded query, by the API and by `check`, prints an exact 1
    # without numpy; only the bounded query loads it, and gives the value
    # computed here
    query = "P=? [ F<=3 all_failed ]"
    model = models_dir / "wsn.big"
    child = f"""
import contextlib, io, sys
import bigrs
from bigrs import cli
out = {str(tmp_path)!r}
spec = bigrs.load_model({str(model)!r})
ts = bigrs.build_transition_system(spec)
bigrs.export_prism(ts, out, "api")
bigrs.export_dot(ts, out, "api")
bigrs.export_json(ts, out, "api")
bigrs.simulate(spec, 20, seed=1)
with contextlib.redirect_stdout(io.StringIO()):
    for args in (["validate"], ["full", "--out", out], ["sim", "--steps", "20"]):
        assert cli.main([args[0], {str(model)!r}, *args[1:]]) == 0
assert "numpy" not in sys.modules, "numpy loaded before any query"
unbounded = "P=? [ F all_failed ]"
assert bigrs.run_query(ts, bigrs.parse_query(unbounded)) == 1
printed = io.StringIO()
with contextlib.redirect_stdout(printed):
    assert cli.main(["check", {str(model)!r}, "--query", unbounded]) == 0
assert printed.getvalue() == "1\\n", printed.getvalue()
assert "numpy" not in sys.modules, "numpy loaded by an unbounded query"
refused = "Rmin=? [ C<=3 ]"
try:
    bigrs.run_query(ts, bigrs.parse_query(refused))
except bigrs.AnalysisError:
    pass
else:
    raise AssertionError("an MDP query ran on a DTMC")
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["check", {str(model)!r}, "--query", refused]) == 1
assert "numpy" not in sys.modules, "numpy loaded by a refused query"
value = bigrs.run_query(ts, bigrs.parse_query({query!r}))
assert "numpy" in sys.modules
print(repr(value))
"""
    src = os.path.dirname(os.path.dirname(bigrs.__file__))
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        env=dict(os.environ, PYTHONPATH=path_env),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expected = run_query(build_transition_system(load_model(model)), parse_query(query))
    assert float(proc.stdout) == expected


def test_check_virus_unbounded_prints_exact_one(models_dir, capsys):
    query = "P=? [ F all_infected ]"
    assert main(["check", str(models_dir / "virus.big"), "--query", query]) == 0
    assert capsys.readouterr().out == "1\n"


def test_sim_json_lines(models_dir, capsys):
    rc = main(["sim", str(models_dir / "wsn.big"), "--steps", "5", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert first["step"] == 1 and "state" in first and "rule" in first


@pytest.mark.parametrize("steps", ["-3", "many"])
def test_sim_rejects_bad_steps_exits_2(models_dir, capsys, steps):
    with pytest.raises(SystemExit) as exc:
        main(["sim", str(models_dir / "wsn.big"), "--steps", steps])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--steps" in captured.err


@pytest.mark.parametrize("cap", ["0", "-5", "many"])
def test_max_states_rejects_non_positive_exits_2(models_dir, capsys, cap):
    model = str(models_dir / "wsn.big")
    check = ["check", model, "--query", "P=? [ F true ]"]
    for argv in (["full", model], check):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-states", cap])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-states" in captured.err


def test_check_mdp_cost(models_dir, capsys):
    rc = main(
        [
            "check",
            str(models_dir / "mobile_sink.big"),
            "--query",
            "Rmin=? [ C<=10 ]",
        ]
    )
    assert rc == 0
    value = float(capsys.readouterr().out)
    assert value >= 0


def test_validate_deep_nesting_exits_1(tmp_path, capsys):
    deep = tmp_path / "deep.big"
    deep.write_text(
        "ctrl A = 0;\nbig s = " + "A." * 800 + "1;\nbegin brs init = s; rules = []; end\n"
    )
    assert main(["validate", str(deep)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 2:") and "nested too deeply" in err


def test_validate_deep_definition_chain_exits_1_with_location(tmp_path, capsys):
    lines = ["ctrl A = 0;", "big b0 = 1;"]
    lines += [f"big b{i} = A.b{i - 1};" for i in range(1, 1001)]
    lines.append("begin brs init = b1000; rules = []; end")
    chain = tmp_path / "chain.big"
    chain.write_text("\n".join(lines) + "\n")
    assert main(["validate", str(chain)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 1002:1: ") and "nested too deeply" in captured.err


def _mutants(models_dir, count: int, seed: int):
    """`count` sources, each one shipped model with one token deleted,
    duplicated, swapped with the next, replaced by any token of the
    models, or (a name or number) replaced by a name or number of the
    models.  The tokens keep their lines; a line's tokens are joined by
    spaces."""
    rng = random.Random(seed)
    tokens = [tokenize(p.read_text())[:-1] for p in sorted(models_dir.glob("*.big"))]

    def kind(t):
        return t.kind if t.kind in ("name", "num") else None

    vocab = sorted({(t.text, kind(t)) for ts in tokens for t in ts})
    ops = ("delete", "duplicate", "swap", "any", "alike")
    for n in range(count):
        toks = [[t.line, t.text, kind(t)] for t in tokens[n % len(tokens)]]
        op = ops[n // len(tokens) % len(ops)]
        i = rng.randrange(len(toks) - 1)
        if op == "delete":
            del toks[i]
        elif op == "duplicate":
            toks.insert(i, list(toks[i]))
        elif op == "swap":
            toks[i][1:], toks[i + 1][1:] = toks[i + 1][1:], toks[i][1:]
        elif op == "any":
            toks[i][1:] = rng.choice(vocab)
        else:
            i = rng.choice([j for j, t in enumerate(toks) if t[2]])
            toks[i][1] = rng.choice([text for text, k in vocab if k == toks[i][2]])
        lines: dict = {}
        for line, text, _ in toks:
            lines.setdefault(line, []).append(text)
        rows = range(1, max(lines) + 1)
        yield op, "\n".join(" ".join(lines.get(k, ())) for k in rows)


def test_mutated_models_build_or_fail_with_a_located_diagnostic(
    models_dir, tmp_path, capsys
):
    # a seeded mutation run over the shipped models: each mutant loads and
    # builds (to at most 30 states), or is a located diagnostic that
    # `bigrs validate` reports with exit code 1 and no traceback
    seen = {"built": 0, "failed": 0}
    path = tmp_path / "mutant.big"
    for n, (op, source) in enumerate(_mutants(models_dir, 150, seed=2024)):
        try:
            spec = elaborate(parse(source))
        except BigraphError as err:
            assert re.match(r"\d+:\d+: ", str(err)), (n, op, str(err))
            path.write_text(source)
            capsys.readouterr()
            assert main(["validate", str(path)]) == 1, (n, op)
            assert capsys.readouterr() == ("", f"error: {err}\n"), (n, op)
            seen["failed"] += 1
            continue
        try:
            build_transition_system(spec, max_states=30)
        except StateCapError:
            pass
        seen["built"] += 1
    assert seen["built"] and seen["failed"], seen
