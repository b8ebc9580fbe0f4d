"""Exporters: PRISM explicit-state bundles, DOT graphs, JSON dumps.

PRISM formats (states 0-based, LF line endings, probabilities printed
with 17 significant digits so doubles round-trip):

* DTMC/CTMC ``.tra``: header ``<numStates> <numTransitions>``, then one
  ``<src> <dst> <prob-or-rate>`` row per transition, sorted by (src, dst).
* MDP ``.tra``: header ``<numStates> <numChoices> <numTransitions>``,
  rows ``<src> <choiceIndex> <dst> <prob> <actionName>``; choices are
  indexed per source in lexicographic action-name order, and a terminal
  state gets a single ``tau`` self-loop choice (the trivial identity
  action) so every state has at least one choice.  An action name that
  is empty or holds whitespace is refused: the row has no escape.
* ``.lab``: header assigning label ids (``init`` is always id 0 and holds
  on state 0), then ``<state>: <ids...>`` for each labelled state.  A
  label holding ``"`` or a line break is refused: the header has no escape.
  So is a label named ``init``, and a ``charged(r)`` marker (below) that
  is also a predicate label.
* ``.srew``: header ``<numStates> <numNonzero>`` then ``<state> <reward>``.
* ``.trew`` (MDP action rewards): header ``<numStates> <numNonzero>``
  then ``<src> <choiceIndex> <reward>`` per rewarded choice.

``rewards_as_states`` rewrites an MDP so every action reward is carried
by the *successor* state instead: states are split per incoming reward
class, marked with a ``charged(r)`` label, and the reward is added to the
split state's state reward.  This trades one step of reward timing for
compatibility with checkers that cannot import action rewards; it is off
by default and documented in docs/formats.md.

The JSON file is ``json.dumps(doc, indent=2, sort_keys=True)`` of the
system's document plus a newline, written one transition and one state
at a time, each state's document written from the arrays the closure
kept (`_state_json`), so memory holds one state's document at most.
`_dump` writes that text directly, with strings escaped by json's own C
function: json's indented encoder is pure Python, and most of the
export's time went to it.
The `.tra` and `.trew` files are likewise written a row or a choice at
a time, read from the system's `TransitionStore`, with each distinct
mass formatted once.
Every file is written atomically: all the files of one export go to
temporary files beside their targets and are moved into place once
complete, so a failed write leaves every earlier file intact.
"""

from __future__ import annotations

import json
import os
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise
from pathlib import Path

from .bigraph import NODE, REGION, BigraphError
from .system import TransitionSystem


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
    return "".join(_tra_chunks(ts))


def _tra_chunks(ts: TransitionSystem) -> Iterator[str]:
    """The `.tra` file in chunks, one a row (an MDP: one a choice), each
    distinct mass formatted once.  A brs, or an MDP action name that is
    empty or holds whitespace, is refused before any chunk is made."""
    if ts.kind == "brs":
        raise ExportError(
            f"kind {ts.kind!r} has no PRISM transition format (plain reaction "
            "relations export as dot or json)"
        )
    rows = ts.rows
    text = {k: f"{d:.17g}" for k, d in enumerate(rows.doubles)}
    if ts.kind != "abrs":
        lines = (
            "".join(f"{i} {j} {text[k]}\n" for _, js, ks in rows.choices(i)
                    for j, k in zip(js, ks))
            for i in range(ts.n_states)
        )
        return chain([f"{ts.n_states} {len(rows.succ)}\n"], lines)
    for name in rows.names:
        if name.split() != [name]:
            raise ExportError(f"action {name!r} is empty or holds whitespace")
    text[None] = "1"
    taus = sum(a == b for a, b in pairwise(rows.choice_at))
    header = f"{ts.n_states} {len(rows.action) + taus} {len(rows.succ) + taus}\n"
    # a terminal state gets the tau self-loop, whose mass index is None
    lines = (
        "".join(f"{src} {ci} {j} {text[k]} {name}\n" for j, k in zip(js, ks))
        for src in range(ts.n_states)
        for ci, (name, js, ks) in enumerate(
            rows.choices(src) or [("tau", (src,), (None,))])
    )
    return chain([header], lines)


def render_lab(ts: TransitionSystem) -> str:
    names = sorted({l for ls in ts.labels for l in ls})
    if "init" in names:
        raise ExportError("label 'init' is PRISM's initial-state label")
    ids = {"init": 0}
    for name in names:
        if any(c in name for c in '"\n\r'):
            raise ExportError(f"label {name!r} holds a quote or a line break")
        ids[name] = len(ids)
    header = " ".join(f'{i}="{n}"' for n, i in sorted(ids.items(), key=lambda x: x[1]))
    lines = [header]
    for s in range(ts.n_states):
        mine = sorted(ids[l] for l in ts.labels[s])
        if s == 0:
            mine = sorted(set(mine) | {0})
        if mine:
            lines.append(f"{s}: " + " ".join(str(i) for i in mine))
    return "\n".join(lines) + "\n"


def render_srew(ts: TransitionSystem) -> str:
    nonzero = [(s, r) for s, r in enumerate(ts.state_reward) if r != 0]
    lines = [f"{ts.n_states} {len(nonzero)}"]
    lines += [f"{s} {_fmt(r)}" for s, r in nonzero]
    return "\n".join(lines) + "\n"


def render_trew(ts: TransitionSystem) -> str:
    return "".join(_trew_chunks(ts))


def _trew_chunks(ts: TransitionSystem) -> Iterator[str]:
    """The `.trew` file in chunks, one a rewarded choice; the choices are
    read twice, to count them for the header and then to write them.  A
    terminal state's tau self-loop is no stored choice, and has no reward."""
    if ts.kind != "abrs":
        raise ExportError("transition rewards are only exported for MDPs")

    def rewarded():
        for src in range(ts.n_states):
            for ci, (name, _, _) in enumerate(ts.rows.choices(src)):
                r = ts.action_reward.get(name, 0)
                if r != 0:
                    yield f"{src} {ci} {_fmt(r)}\n"

    count = sum(1 for _ in rewarded())
    return chain([f"{ts.n_states} {count}\n"], rewarded())


def rewards_to_states(ts: TransitionSystem) -> TransitionSystem:
    """Fold MDP action rewards into successor-state rewards by splitting
    states per incoming reward class (marker label ``charged(r)``)."""
    if ts.kind != "abrs":
        raise ExportError("rewards_as_states applies to MDPs only")
    classes: dict = {}  # (orig, reward) -> new index, in creation order
    worklist: deque = deque()  # classes not yet expanded

    def class_of(orig: int, reward) -> int:
        key = (orig, reward)
        if key not in classes:
            classes[key] = len(classes)
            worklist.append(key)
        return classes[key]

    zero = Fraction(0)
    class_of(0, zero)
    masses = ts.rows.masses
    rows = []  # expanded in creation order, so row k is class k's
    while worklist:
        orig, _ = worklist.popleft()
        row = []
        for name, js, ks in ts.rows.choices(orig):
            r = ts.action_reward.get(name, zero)
            entries: dict = {}
            for j, k in zip(js, ks):
                nj = class_of(j, r)
                entries[nj] = entries.get(nj, zero) + masses[k]
            row.append((name, entries))
        rows.append(row)
    states = []
    labels = []
    state_reward = []
    taken = set(ts.label_names).union(*ts.labels)
    for orig, reward in classes:
        key, state = ts.states[orig]
        states.append((key + f"|charged:{reward}".encode(), state))
        marks = set(ts.labels[orig])
        if reward != 0:
            mark = f"charged({_render_reward(reward)})"
            if mark in taken:
                raise ExportError(f"label {mark!r} is a predicate and a reward marker")
            marks.add(mark)
        labels.append(frozenset(marks))
        state_reward.append(ts.state_reward[orig] + reward)
    return TransitionSystem(
        kind="abrs",
        states=states,
        rows=rows,
        labels=labels,
        label_names=ts.label_names,
        state_reward=state_reward,
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
    """Write the PRISM bundle for a built system and return the manifest.
    Every file is checked before anything is written, so a system that
    cannot be exported leaves no output behind; the `.tra` and `.trew`
    files are then written a chunk at a time."""
    if rewards_as_states:
        ts = rewards_to_states(ts)
    chunks = {"tra": _tra_chunks(ts), "lab": [render_lab(ts)]}
    if any(r != 0 for r in ts.state_reward):
        chunks["srew"] = [render_srew(ts)]
    if ts.kind == "abrs" and _action_rewarded(ts):
        chunks["trew"] = _trew_chunks(ts)
    files = {f"{stem}.{role}": c for role, c in chunks.items()}
    paths = dict(zip(chunks, _write(out_dir, files)))
    return ExportBundle(paths["tra"], paths["lab"], paths.get("srew"),
                        paths.get("trew"))


def _action_rewarded(ts: TransitionSystem) -> bool:
    """Whether a stored choice has a nonzero reward."""
    return any(ts.action_reward.get(name, 0) != 0 for name in ts.rows.names)


def _write(out_dir, files: dict[str, Iterable[str]]) -> list[Path]:
    """Write each file's text chunks to out_dir/name, creating out_dir,
    and return the paths.  The targets are replaced only once all of them
    are written in full to temporary files beside them: a write that fails
    part-way leaves every target as it was, and no temporary file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tmps = {}
    try:
        for name, chunks in files.items():
            tmp = tmps[name] = out_dir / f".{name}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(chunks)
        for name, tmp in tmps.items():
            os.replace(tmp, out_dir / name)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise
    return [out_dir / name for name in files]


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def render_dot(ts: TransitionSystem) -> str:
    lines = ["digraph ts {", "  node [shape=circle];"]
    for i in range(ts.n_states):
        labels = sorted(ts.labels[i])
        text = str(i) if not labels else f"{i}: " + ",".join(labels)
        lines.append(f'  s{i} [label="{text.translate(_DOT_ESCAPES)}"];')
    short = [f"{d:.6g}" for d in ts.rows.doubles]
    for i, name, j, k in ts.rows.entries():
        if ts.kind == "brs":
            lines.append(f"  s{i} -> s{j};")
        else:
            text = short[k] if name is None else f"{name}:{short[k]}"
            lines.append(f'  s{i} -> s{j} [label="{text.translate(_DOT_ESCAPES)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

_ESCAPE = json.encoder.encode_basestring_ascii
_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}
# json's text of a scalar, by its exact type
_SCALARS = {
    str: _ESCAPE,
    int: int.__repr__,
    float: lambda x: "NaN" if x != x else _INFINITIES.get(x) or float.__repr__(x),
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _dump(value, pad: str, out: list[str]) -> list[str]:
    """Append to `out`, and return it, the text of ``json.dumps(value,
    indent=2, sort_keys=True)`` with every line after the first indented
    by `pad`.  Dicts need `str` keys, and scalars must be of exact type
    `str`, `int`, `float`, `bool` or `None`; anything else is a `TypeError`."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        out.append(scalar(value))
    elif isinstance(value, dict):
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out.append(sep + _ESCAPE(key) + ": ")
            _dump(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _dump(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]" if value else "[]")
    else:
        raise TypeError(f"{type(value).__name__} is not written as JSON")
    return out


def _state_json(s) -> dict:
    """The JSON document of a kept state (docs/formats.md § Bigraph JSON),
    written from its arrays.  Ids and edge idents ascend and the outer
    names are sorted, so only each link's ports need sorting, and by
    node index is by id."""
    ids, names = s.ids, sorted(s.outer.names)

    def link(key: dict, ps) -> dict:
        return {**key, "ports": [[ids[i], j] for i, j in sorted(ps)], "inner": []}

    return {
        "signature": [
            {"name": d.name, "arity": d.arity, "atomic": d.atomic,
             "params": d.param_count}
            for d in sorted(s.signature.values(), key=lambda d: d.name)
        ],
        "nodes": [
            {"id": v, "control": c, "params": [
                {"num": p.numerator, "den": p.denominator}
                if isinstance(p, Fraction) else p for p in params
            ]}
            for v, (c, params) in zip(ids, s.controls)
        ],
        "place": {
            "regions": s.outer.width,
            "sites": 0,
            "node_parent": {str(v): [REGION, -1 - u] if u < 0 else [NODE, ids[u]]
                            for v, u in zip(ids, s.up)},
            "site_parent": {},
        },
        "links": [link({"name": k}, ps) for k, ps in zip(names, s.name_ports)]
        + [link({"edge": e.ident}, ps) for e, ps in zip(s.edges, s.edge_ports)],
        "inner_names": [],
        "outer_names": names,
    }


def _json_list(items) -> Iterator[str]:
    """A top-level list of the document, one item at a time."""
    empty = True
    for item in items:
        yield "".join(_dump(item, "    ", ["[" if empty else ",", "\n    "]))
        empty = False
    yield "[]" if empty else "\n  ]"


def _json_chunks(ts: TransitionSystem) -> Iterator[str]:
    """The text of the system's JSON document in pieces, equal to
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the whole
    document; the transitions and the state bigraphs are made one item
    at a time."""
    weight = "rate" if ts.kind == "sbrs" else "prob"
    doubles = ts.rows.doubles

    def edges():
        for i, name, j, k in ts.rows.entries():
            edge = {"src": i, "dst": j}
            if name is not None:
                edge["action"] = name
            if ts.kind != "brs":
                edge[weight] = doubles[k]
            yield edge

    doc: dict = {
        "kind": ts.kind,
        "states": ts.n_states,
        "complete": ts.complete,
        "transitions": _json_list(edges()),
        "labels": {str(i): sorted(ls) for i, ls in enumerate(ts.labels) if ls},
        "state_bigraphs": _json_list(
            _state_json(s) if s is not None else None for _, s in ts.states
        ),
    }
    if any(r != 0 for r in ts.state_reward):
        doc["state_rewards"] = {
            str(i): float(r) for i, r in enumerate(ts.state_reward) if r != 0
        }
    if ts.kind == "abrs" and _action_rewarded(ts):
        per_state = (
            {name: float(r) for name, _, _ in ts.rows.choices(i)
             if (r := ts.action_reward.get(name, 0)) != 0}
            for i in range(ts.n_states)
        )
        doc["action_rewards"] = {str(i): per for i, per in enumerate(per_state) if per}
    for n, key in enumerate(sorted(doc)):
        yield ("{" if n == 0 else ",") + f"\n  {_ESCAPE(key)}: "
        value = doc[key]
        if isinstance(value, Iterator):
            yield from value
        else:
            yield "".join(_dump(value, "  ", []))
    yield "\n}\n"


def export_json(ts: TransitionSystem, out_dir, stem: str) -> Path:
    return _write(out_dir, {f"{stem}.json": _json_chunks(ts)})[0]


def export_dot(ts: TransitionSystem, out_dir, stem: str) -> Path:
    return _write(out_dir, {f"{stem}.dot": [render_dot(ts)]})[0]
