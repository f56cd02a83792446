"""Run traces: ordered event streams with a terminal summary.

Events carry a strictly increasing id, a stage, one of a fixed set of
kinds, and a flat string payload.  The text form is line-oriented and
canonical, so a cryptographic digest of it is a stable fingerprint of a
run.  A replay re-derives the terminal summary from the events in its one
pass over them, which gives the self-consistency check.
"""

from __future__ import annotations

import hashlib


class ConfigError(ValueError):
    """Bad scenario or run configuration; maps to exit code 2."""


class CheckResult:
    """One named verifier check: its verdict, the event id (or other
    index) that witnesses a failure, and a detail line."""

    def __init__(self, name: str, passed: bool, witness=None, detail: str = ""):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.detail = detail

    def line(self) -> str:
        w = self.witness if self.witness is not None else "?"
        verdict = "pass" if self.passed else "fail"
        return f"check {self.name} {verdict} witness {w}"


EVENT_KINDS = frozenset({
    "visit", "init", "select", "declare", "enumerate",
    "inject-converge", "inject-diverge",
    "qlist-set", "qlist-remove", "phi-set",
})


class Event:
    __slots__ = ("eid", "stage", "kind", "payload")

    def __init__(self, eid, stage, kind, payload):
        self.eid = eid
        self.stage = stage
        self.kind = kind
        self.payload = payload

    def __repr__(self):
        return f"Event({self.eid}, {self.stage}, {self.kind}, {self.payload})"

    def line(self) -> str:
        parts = [str(self.eid), str(self.stage), self.kind]
        parts += [f"{k}={v}" for k, v in self.payload.items()]
        return " ".join(parts)


class RunTrace:
    def __init__(self, construction: str = "", stages: int = 0):
        self.construction = construction
        self.stages = stages
        self.events = []
        self.summary = {}

    def emit(self, stage: int, kind: str, **payload) -> Event:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        ev = Event(len(self.events), stage, kind, {
            k: str(v) for k, v in payload.items()})
        self.events.append(ev)
        return ev

    def finalize(self, summary: dict):
        self.summary = {k: str(v) for k, v in summary.items()}

    # -- text form -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"trace {self.construction} stages={self.stages}"]
        lines += [e.line() for e in self.events]
        for k in sorted(self.summary):
            lines.append(f"summary {k} {self.summary[k]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunTrace":
        """Parse the text form.  A malformed line, a negative stage count
        in the header included, an unknown event kind, an event id out of
        sequence or a stage that goes backwards raises ConfigError naming
        the line."""
        trace = None
        last_stage = 0
        for lineno, ln in enumerate(text.splitlines(), 1):
            if not ln.strip():
                continue
            try:
                if trace is None:
                    word, construction, stages_tok = ln.split()
                    key, stages = stages_tok.split("=")
                    if word != "trace" or key != "stages" or int(stages) < 0:
                        raise ValueError
                    trace = cls(construction, int(stages))
                    continue
                if ln.startswith("summary "):
                    _, key, value = ln.split(" ", 2)
                    trace.summary[key] = value
                    continue
                toks = ln.split()
                eid, stage, kind = int(toks[0]), int(toks[1]), toks[2]
                payload = dict(t.split("=", 1) for t in toks[3:])
            except (ValueError, IndexError):
                what = "trace header" if trace is None else "trace line"
                raise ConfigError(f"line {lineno}: malformed {what} "
                                  f"{ln!r}") from None
            if kind not in EVENT_KINDS:
                raise ConfigError(f"line {lineno}: unknown event kind "
                                  f"{kind!r}")
            if eid != len(trace.events):
                raise ConfigError(f"line {lineno}: event id {eid} out of "
                                  f"sequence, expected {len(trace.events)}")
            if stage < last_stage:
                raise ConfigError(f"line {lineno}: stage {stage} after "
                                  f"stage {last_stage}")
            last_stage = stage
            trace.events.append(Event(eid, stage, kind, payload))
        if trace is None:
            raise ConfigError("missing trace header")
        return trace

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()


def payload_error(ev: Event, ex: Exception) -> ConfigError:
    """The ConfigError for a KeyError or ValueError met while reading the
    payload of event ev."""
    if isinstance(ex, KeyError):
        return ConfigError(f"event {ev.eid}: {ev.kind} without payload key "
                           f"{ex.args[0]!r}")
    return ConfigError(f"event {ev.eid}: bad {ev.kind} payload: {ex}")


class Summary:
    """The terminal summary as a replay derives it in its one pass, from
    the raw payload texts: A from every enumerate, a node's follower from
    its declare what=follower and its use from any other declare; an
    enumerate drops the node's use, an init drops both."""

    def __init__(self):
        self.A = []
        self.follower = {}  # node text -> live follower text
        self.use = {}  # node text -> live use text

    def read(self, kind: str, p: dict):
        if kind == "enumerate":
            self.A.append(int(p["element"]))
            self.use.pop(p["node"], None)
        elif kind == "declare":
            node = p["node"]
            if p.get("what") == "follower":
                self.follower[node] = p["y"]
            else:
                self.use[node] = p["u"]
        elif kind == "init":
            self.follower.pop(p["node"], None)
            self.use.pop(p["node"], None)

    def entries(self) -> dict:
        """The summary as RunTrace.finalize stores it."""
        out = {"A": ",".join(str(x) for x in sorted(self.A)) or "-"}
        for node in sorted(self.follower):
            state = self.follower[node]
            if node in self.use:
                state += ":" + self.use[node]
            out[f"node.{node}"] = state
        return out
