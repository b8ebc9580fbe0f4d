"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured evidence.  Budgets are wall-clock seconds."""

import random
import re
import time
from fractions import Fraction

import pytest

from bigrs.analysis import (
    ctmc_reach,
    dtmc_bounded_reach,
    mdp_expected_cost,
)
from bigrs.bigraph import lean
from bigrs.canon import canonical_key
from bigrs.language import elaborate, load_model, parse
from bigrs.matching import occurrences
from bigrs.system import build_transition_system

from genutil import plant, random_ground, random_solid
from oracles import (
    brute_occurrence_count,
    brute_support_equivalent,
    key_index,
    next_distribution,
)

PROPERTY_SEEDS = (11, 23, 47)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def patched(path, **constants):
    src = path.read_text()
    for name, value in constants.items():
        src, n = re.subn(
            rf"(int|float) {name} = [0-9.]+;", rf"\g<1> {name} = {value};", src
        )
        assert n == 1, f"constant {name} not found in {path.name}"
    return elaborate(parse(src))


# ---------------------------------------------------------------------------
# 1. four-state failure chain, exact transition probabilities
# ---------------------------------------------------------------------------


def test_criterion_1_wsn_dtmc_reproduction(models_dir, tmp_path, capsys):
    from bigrs.cli import main

    t0 = time.perf_counter()
    ts = build_transition_system(load_model(models_dir / "wsn.big"))
    rc = main(
        ["full", str(models_dir / "wsn.big"), "--out", str(tmp_path)]
    )
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    rows = [dict(dist) for (_, dist), in ts.rows]
    n_transitions = sum(len(r) for r in rows)
    expected = [
        {1: Fraction(1)},
        {2: Fraction(4, 5), 0: Fraction(1, 5)},
        {3: Fraction(1, 2), 1: Fraction(1, 2)},
        {2: Fraction(1)},
    ]
    exact_ok = ts.n_states == 4 and n_transitions == 6 and rows == expected
    float_rows = {}
    for line in (tmp_path / "wsn.tra").read_text().splitlines()[1:]:
        src, dst, p = line.split()
        float_rows[(int(src), int(dst))] = float(p)
    float_ok = len(float_rows) == 6 and all(
        abs(float_rows.get((i, j), 0.0) - float(expected[i].get(j, 0))) <= 1e-12
        for i in range(4)
        for j in range(4)
    )
    report(
        "criterion 1 (failure-chain DTMC)",
        rc == 0 and exact_ok and float_ok and elapsed < 1.0,
        f"{ts.n_states} states, {n_transitions} transitions, exact rows "
        f"{'ok' if exact_ok else 'WRONG'}, exported floats within 1e-12, "
        f"built+exported in {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. three-state send/wait MDP, exact per-action distributions
# ---------------------------------------------------------------------------


def test_criterion_2_send_mdp_reproduction(models_dir):
    ts = build_transition_system(load_model(models_dir / "send_mdp.big"))
    ok = ts.n_states == 3
    sent = ts.states_with_label("sent")
    ok = ok and len(sent) == 1
    step0 = {name: dict(dist.items()) for name, dist in ts.rows[0]}
    failed = next(
        i for i in range(3) if i not in sent and i != 0
    )
    ok = ok and step0 == {
        "a_send": {sent[0]: Fraction(5, 6), failed: Fraction(1, 6)},
        "a_wait": {0: Fraction(1)},
    }
    step_failed = {name: dict(dist.items()) for name, dist in ts.rows[failed]}
    ok = ok and step_failed == {"a_reset": {0: Fraction(1)}}
    ok = ok and ts.rows[sent[0]] == []
    report(
        "criterion 2 (send/wait MDP)",
        ok,
        f"{ts.n_states} states; Step(initial) = {step0}; "
        f"Step(failed) = {step_failed}",
    )


# ---------------------------------------------------------------------------
# 3. occurrence counts against the exhaustive oracle
# ---------------------------------------------------------------------------


def test_criterion_3_occurrence_count_oracle():
    t0 = time.perf_counter()
    rng = random.Random(1009)
    pairs = 0
    agreements = 0
    nonzero = 0
    while pairs < 500:
        redex = random_solid(rng, max_nodes=6)
        if pairs % 2 == 0:
            target = lean(plant(rng, redex))
        else:
            target = random_ground(rng, max_nodes=8)
        got = len(occurrences(redex, target))
        want = brute_occurrence_count(redex, target)
        pairs += 1
        agreements += got == want
        nonzero += want > 0
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (occurrence-count oracle)",
        agreements == pairs and elapsed < 60 and nonzero >= 100,
        f"{agreements}/{pairs} agree ({nonzero} with occurrences) "
        f"in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. virus spread: monotone in the horizon, anti-monotone in detection
# ---------------------------------------------------------------------------


def test_criterion_4_virus_trends(models_dir):
    t0 = time.perf_counter()
    horizons = [100, 200, 300, 400, 500]
    detects = ["5.0", "10.0", "15.0"]
    table = {}
    for w in detects:
        spec = patched(models_dir / "virus.big", w_detect=w)
        ts = build_transition_system(spec)
        table[w] = [dtmc_bounded_reach(ts, "all_infected", n) for n in horizons]
    elapsed = time.perf_counter() - t0
    rising = all(
        a <= b + 1e-15 for vals in table.values() for a, b in zip(vals, vals[1:])
    )
    falling = all(
        table[a][i] > table[b][i]
        for a, b in zip(detects, detects[1:])
        for i in range(len(horizons))
    )
    detail = ", ".join(
        f"w_detect={w}: P(F<=500)={table[w][-1]:.4f}" for w in detects
    )
    report(
        "criterion 4 (virus-spread trends)",
        rising and falling and elapsed < 300,
        f"{detail}; nondecreasing in n: {rising}; strictly decreasing in "
        f"w_detect: {falling}; 3 builds + 15 queries in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. budding population model: total mass one, diffusion shifts the mean
# ---------------------------------------------------------------------------


def test_criterion_5_budding_distribution(models_dir, budding_ts):
    def distribution(ts):
        return [
            ctmc_reach(ts, f"particles({n})").value for n in range(41)
        ]

    base = distribution(budding_ts)
    total = sum(base)
    mean_rd1 = sum(n * p for n, p in enumerate(base))
    fast = distribution(
        build_transition_system(patched(models_dir / "budding.big", rd="2.0"))
    )
    mean_rd2 = sum(n * p for n, p in enumerate(fast))
    report(
        "criterion 5 (budding population model)",
        abs(total - 1) <= 1e-6 and mean_rd2 > mean_rd1,
        f"sum of P(F particles(n)) = {total:.9f}; mean particles "
        f"rd=1: {mean_rd1:.3f} < rd=2: {mean_rd2:.3f}",
    )


# ---------------------------------------------------------------------------
# 6. mobile-sink MDP: cost falls with buffer size, rises with receive weight
# ---------------------------------------------------------------------------


def test_criterion_6_mobile_sink_trends(models_dir):
    def min_cost(**constants):
        t0 = time.perf_counter()
        spec = patched(models_dir / "mobile_sink.big", **constants)
        ts = build_transition_system(spec)
        value = mdp_expected_cost(ts, 4000, "min")
        assert time.perf_counter() - t0 < 600
        return value

    by_buffer = [min_cost(bmax=b, w_receive="6.0") for b in (2, 3, 4)]
    by_receive = [min_cost(bmax=4, w_receive=w) for w in ("2.0", "4.0", "6.0")]
    buffer_ok = all(a >= b - 1e-9 for a, b in zip(by_buffer, by_buffer[1:]))
    receive_ok = all(a <= b + 1e-9 for a, b in zip(by_receive, by_receive[1:]))
    report(
        "criterion 6 (mobile-sink cost trends)",
        buffer_ok and receive_ok,
        f"Rmin[C<=4000] by buffer {by_buffer} nonincreasing: {buffer_ok}; "
        f"by w_receive {by_receive} nondecreasing: {receive_ok} "
        "(single sensor, documented reduced scale)",
    )


# ---------------------------------------------------------------------------
# 7. semantics invariants under three fixed seeds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", PROPERTY_SEEDS)
def test_criterion_7_semantics_invariants(models_dir, seed):
    rng = random.Random(seed)
    checks = []

    # weight scaling and row sums on the failure chain
    scale = rng.randrange(2, 30)
    base = build_transition_system(load_model(models_dir / "wsn.big"))
    spec = patched(
        models_dir / "wsn.big",
        w_fail=f"{2 * scale}.0",
        w_con=f"{1 * scale}.0",
    )
    scaled = build_transition_system(spec)
    checks.append(
        (
            "weight scaling leaves every distribution unchanged",
            base.rows == scaled.rows,
        )
    )
    checks.append(
        (
            "DTMC rows sum to one exactly",
            all(sum(dist.values()) == 1 for (_, dist), in base.rows),
        )
    )

    # the PBRS-is-DTMC property: builder rows equal per-state normalization
    spec = load_model(models_dir / "wsn.big")
    index = key_index(base)
    lemma1 = all(
        base.rows[i] == [(None, {
            index[k]: p
            for k, (_, p) in next_distribution(g, spec.rules).items()
        })]
        for i, g in enumerate(s.bigraph() for _, s in base.states)
    )
    checks.append(("per-state distributions match builder rows", lemma1))

    # weight scaling on the MDP as well: per-action normalization quotient
    mdp_scaled = build_transition_system(
        patched(
            models_dir / "send_mdp.big",
            w_suc=f"{5 * scale}.0",
            w_fail=f"{1 * scale}.0",
        )
    )

    # the ABRS-is-MDP property: fixing actions reproduces each MDP row
    mdp_spec = load_model(models_dir / "send_mdp.big")
    mdp_ts = build_transition_system(mdp_spec)
    midx = key_index(mdp_ts)
    lemma2 = True
    actions = {a.name: a for a in mdp_spec.actions}
    for i, row in enumerate(mdp_ts.rows):
        g = mdp_ts.states[i][1].bigraph()
        for name, dist in row:
            fixed = {
                midx[k]: p
                for k, (_, p) in next_distribution(g, actions[name].rules).items()
            }
            lemma2 = lemma2 and fixed == dict(dist.items())
            mdp_rows = all(
                sum(p for _, p in d.items()) == 1 for _, d in row
            )
            lemma2 = lemma2 and mdp_rows
    checks.append(("fixed-action rows match per-action normalization", lemma2))
    same_mdp = [
        [(name, dict(d.items())) for name, d in row] for row in mdp_ts.rows
    ] == [
        [(name, dict(d.items())) for name, d in row] for row in mdp_scaled.rows
    ]
    checks.append(("MDP distributions invariant under weight scaling", same_mdp))

    # lean normalization is idempotent on random states
    leans = all(
        lean(lean(g)).links == lean(g).links
        for g in (random_ground(rng, allow_idle_edge=True) for _ in range(30))
    )
    checks.append(("lean normalization idempotent", leans))

    # canonical keys agree with brute-force isomorphism on a small corpus
    corpus = [random_ground(rng, max_nodes=6) for _ in range(18)]
    canon_ok = True
    for i, f in enumerate(corpus):
        for g in corpus[i:]:
            want = brute_support_equivalent(f, g)
            canon_ok = canon_ok and (
                (canonical_key(f) == canonical_key(g)) == want
            )
    checks.append(("canonical keys iff brute-force isomorphism", canon_ok))

    failed = [name for name, ok in checks if not ok]
    report(
        f"criterion 7 (semantics invariants, seed {seed})",
        not failed,
        f"{len(checks)} properties"
        + (f"; failed: {failed}" if failed else " all hold"),
    )


# ---------------------------------------------------------------------------
# 8. byte-identical exports on the whole model corpus
# ---------------------------------------------------------------------------


def test_criterion_8_deterministic_exports(models_dir, tmp_path):
    # clean interpreter per run, with different hash seeds, so any reliance
    # on hash ordering would show up as differing bytes
    import os
    import subprocess
    import sys

    import bigrs

    # the child runs the same bigrs as this process, installed or not
    src = os.path.dirname(os.path.dirname(bigrs.__file__))
    path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    mismatches = []
    checked = []
    for path in sorted(models_dir.glob("*.big")):
        outputs = []
        for run, hashseed in (("one", "0"), ("two", "424242")):
            out_dir = tmp_path / run / path.stem
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path_env)
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "bigrs.cli",
                    "full",
                    str(path),
                    "--out",
                    str(out_dir),
                    "--format",
                    "prism",
                ],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(
                {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
            )
        checked.append(path.stem)
        if outputs[0] != outputs[1]:
            mismatches.append(path.stem)
    report(
        "criterion 8 (deterministic exports)",
        not mismatches and len(checked) >= 5,
        f"models {', '.join(checked)}: "
        + ("all byte-identical" if not mismatches else f"differ: {mismatches}"),
    )
