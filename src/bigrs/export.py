"""Exporters: PRISM explicit-state bundles, DOT graphs, JSON dumps.

PRISM formats (states 0-based, LF line endings, probabilities printed
with 17 significant digits so doubles round-trip):

* DTMC/CTMC ``.tra``: header ``<numStates> <numTransitions>``, then one
  ``<src> <dst> <prob-or-rate>`` row per transition, sorted by (src, dst).
* MDP ``.tra``: header ``<numStates> <numChoices> <numTransitions>``,
  rows ``<src> <choiceIndex> <dst> <prob> <actionName>``; choices are
  indexed per source in lexicographic action-name order, and a terminal
  state gets a single ``tau`` self-loop choice (the trivial identity
  action) so every state has at least one choice.
* ``.lab``: header assigning label ids (``init`` is always id 0 and holds
  on state 0), then ``<state>: <ids...>`` for each labelled state.
* ``.srew``: header ``<numStates> <numNonzero>`` then ``<state> <reward>``.
* ``.trew`` (MDP action rewards): header ``<numStates> <numNonzero>``
  then ``<src> <choiceIndex> <reward>`` per rewarded choice.

``rewards_as_states`` rewrites an MDP so every action reward is carried
by the *successor* state instead: states are split per incoming reward
class, marked with a ``charged(r)`` label, and the reward is added to the
split state's state reward.  This trades one step of reward timing for
compatibility with checkers that cannot import action rewards; it is off
by default and documented in docs/formats.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bigraph import BigraphError, to_json
from .system import Distribution, TransitionSystem


class ExportError(BigraphError):
    pass


def _fmt(p) -> str:
    return f"{float(p):.17g}"


@dataclass
class ExportBundle:
    """File roles -> paths of one written export."""

    tra_file: Path
    lab_file: Path
    srew_file: Path | None = None
    trew_file: Path | None = None

    @property
    def manifest(self) -> dict:
        roles = {"tra": self.tra_file, "lab": self.lab_file}
        if self.srew_file is not None:
            roles["srew"] = self.srew_file
        if self.trew_file is not None:
            roles["trew"] = self.trew_file
        return roles


def render_tra(ts: TransitionSystem) -> str:
    if ts.kind == "abrs":
        choices = _mdp_choices(ts)
        n_trans = sum(len(dist.items()) for _, _, _, dist in choices)
        lines = [f"{ts.n_states} {len(choices)} {n_trans}"]
        for src, ci, name, dist in choices:
            for j, p in dist.items():
                lines.append(f"{src} {ci} {j} {_fmt(p)} {name}")
        return "\n".join(lines) + "\n"
    if ts.kind == "brs":
        raise ExportError(
            f"kind {ts.kind!r} has no PRISM transition format (plain reaction "
            "relations export as dot or json)"
        )
    rows = [f"{i} {j} {_fmt(p)}" for i, _, j, p in ts.transitions()]
    return "\n".join([f"{ts.n_states} {len(rows)}", *rows]) + "\n"


def _mdp_choices(ts: TransitionSystem) -> list:
    """(src, choiceIndex, actionName, Distribution), with the tau self-loop
    filled in for terminal states."""
    out = []
    for i, row in enumerate(ts.rows):
        entries = sorted(row, key=lambda e: e[0])
        if not entries:
            entries = [("tau", Distribution({i: Fraction(1)}))]
        for ci, (name, dist) in enumerate(entries):
            out.append((i, ci, name, dist))
    return out


def render_lab(ts: TransitionSystem) -> str:
    names = sorted({l for ls in ts.labels for l in ls})
    ids = {"init": 0}
    for name in names:
        if name != "init":
            ids[name] = len(ids)
    header = " ".join(f'{i}="{n}"' for n, i in sorted(ids.items(), key=lambda x: x[1]))
    lines = [header]
    for s in range(ts.n_states):
        mine = sorted(ids[l] for l in (ts.labels[s] if ts.labels else ()))
        if s == 0:
            mine = sorted(set(mine) | {0})
        if mine:
            lines.append(f"{s}: " + " ".join(str(i) for i in mine))
    return "\n".join(lines) + "\n"


def render_srew(ts: TransitionSystem) -> str:
    nonzero = [
        (s, r) for s, r in enumerate(ts.state_reward or []) if r != 0
    ]
    lines = [f"{ts.n_states} {len(nonzero)}"]
    lines += [f"{s} {_fmt(r)}" for s, r in nonzero]
    return "\n".join(lines) + "\n"


def render_trew(ts: TransitionSystem) -> str:
    if ts.kind != "abrs":
        raise ExportError("transition rewards are only exported for MDPs")
    rewarded = []
    for src, ci, name, _ in _mdp_choices(ts):
        r = (ts.action_reward[src] if ts.action_reward else {}).get(name, 0)
        if r != 0:
            rewarded.append((src, ci, r))
    lines = [f"{ts.n_states} {len(rewarded)}"]
    lines += [f"{s} {c} {_fmt(r)}" for s, c, r in rewarded]
    return "\n".join(lines) + "\n"


def rewards_to_states(ts: TransitionSystem) -> TransitionSystem:
    """Fold MDP action rewards into successor-state rewards by splitting
    states per incoming reward class (marker label ``charged(r)``)."""
    if ts.kind != "abrs":
        raise ExportError("rewards_as_states applies to MDPs only")
    classes: dict = {}  # (orig, reward) -> new index

    def class_of(orig: int, reward) -> int:
        key = (orig, reward)
        if key not in classes:
            classes[key] = len(classes)
        return classes[key]

    zero = Fraction(0)
    class_of(0, zero)
    worklist = [(0, zero)]
    new_rows: dict = {}
    while worklist:
        orig, reward = worklist.pop(0)
        me = class_of(orig, reward)
        if me in new_rows:
            continue
        row = []
        for name, dist in ts.rows[orig]:
            r = (ts.action_reward[orig] if ts.action_reward else {}).get(name, zero)
            entries = {}
            for j, p in dist.items():
                key = (j, r)
                fresh = key not in classes
                nj = class_of(j, r)
                entries[nj] = entries.get(nj, Fraction(0)) + p
                if fresh or nj not in new_rows:
                    worklist.append((j, r))
            row.append((name, Distribution(entries)))
        new_rows[me] = row
    order = sorted(classes.items(), key=lambda kv: kv[1])
    states = []
    labels = []
    state_reward = []
    action_reward = []
    rows = []
    for (orig, reward), idx in order:
        key, b = ts.states[orig]
        states.append((key + f"|charged:{reward}".encode(), b))
        marks = set(ts.labels[orig]) if ts.labels else set()
        if reward != 0:
            marks.add(f"charged({_render_reward(reward)})")
        labels.append(frozenset(marks))
        base = ts.state_reward[orig] if ts.state_reward else zero
        state_reward.append(base + reward)
        action_reward.append({name: zero for name, _ in new_rows[idx]})
        rows.append(new_rows[idx])
    return TransitionSystem(
        kind="abrs",
        states=states,
        rows=rows,
        labels=labels,
        state_reward=state_reward,
        action_reward=action_reward,
        complete=ts.complete,
    )


def _render_reward(r) -> str:
    if isinstance(r, Fraction) and r.denominator != 1:
        return f"{r.numerator}/{r.denominator}"
    return str(int(r) if float(r).is_integer() else float(r))


def export_prism(
    ts: TransitionSystem,
    out_dir,
    stem: str,
    rewards_as_states: bool = False,
) -> ExportBundle:
    """Write the PRISM bundle for a built system and return the manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if rewards_as_states:
        ts = rewards_to_states(ts)
    tra = out_dir / f"{stem}.tra"
    lab = out_dir / f"{stem}.lab"
    _write(tra, render_tra(ts))
    _write(lab, render_lab(ts))
    bundle = ExportBundle(tra, lab)
    if ts.state_reward and any(r != 0 for r in ts.state_reward):
        bundle.srew_file = out_dir / f"{stem}.srew"
        _write(bundle.srew_file, render_srew(ts))
    if ts.kind == "abrs" and any(
        r != 0 for per in (ts.action_reward or []) for r in per.values()
    ):
        bundle.trew_file = out_dir / f"{stem}.trew"
        _write(bundle.trew_file, render_trew(ts))
    return bundle


def _write(path: Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def render_dot(ts: TransitionSystem) -> str:
    lines = ["digraph ts {", "  node [shape=circle];"]
    for i in range(ts.n_states):
        labels = sorted(ts.labels[i]) if ts.labels else []
        text = str(i) if not labels else f"{i}: " + ",".join(labels)
        lines.append(f'  s{i} [label="{text}"];')
    for i, name, j, p in ts.transitions():
        if p is None:
            lines.append(f"  s{i} -> s{j};")
        else:
            text = f"{float(p):.6g}" if name is None else f"{name}:{float(p):.6g}"
            lines.append(f'  s{i} -> s{j} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def system_to_json(ts: TransitionSystem) -> dict:
    doc: dict = {"kind": ts.kind, "states": ts.n_states, "complete": ts.complete}
    weight = "rate" if ts.kind == "sbrs" else "prob"
    doc["transitions"] = []
    for i, name, j, p in ts.transitions():
        edge = {"src": i, "dst": j}
        if name is not None:
            edge["action"] = name
        if p is not None:
            edge[weight] = float(p)
        doc["transitions"].append(edge)
    doc["labels"] = {
        str(i): sorted(ls) for i, ls in enumerate(ts.labels or []) if ls
    }
    if ts.state_reward and any(r != 0 for r in ts.state_reward):
        doc["state_rewards"] = {
            str(i): float(r) for i, r in enumerate(ts.state_reward) if r != 0
        }
    if ts.kind == "abrs" and any(
        r != 0 for per in (ts.action_reward or []) for r in per.values()
    ):
        doc["action_rewards"] = {
            str(i): {name: float(r) for name, r in sorted(per.items()) if r != 0}
            for i, per in enumerate(ts.action_reward)
            if any(r != 0 for r in per.values())
        }
    doc["state_bigraphs"] = [
        to_json(b) if b is not None else None for _, b in ts.states
    ]
    return doc


def export_json(ts: TransitionSystem, out_dir, stem: str) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.json"
    _write(path, json.dumps(system_to_json(ts), indent=2, sort_keys=True) + "\n")
    return path


def export_dot(ts: TransitionSystem, out_dir, stem: str) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{stem}.dot"
    _write(path, render_dot(ts))
    return path
