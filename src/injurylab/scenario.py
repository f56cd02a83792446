"""Line-oriented scenario files: declarations of one construction run.

A scenario names the construction, the ordinal bound, the stage budget,
the opponents and the functionals.  The same scenario can be replayed
under different seeds for campaigns.
"""

from functools import partial
from typing import NamedTuple

from .approximation import (BoundedCaAdversary, DeltaTwoAdversary,
                            ScriptedCaAdversary)
from .constructions import CONSTRUCTIONS, construction
from .functional import UseFunctional
from .ordinal import parse_cnf
from .trace import ConfigError


class ScenarioError(ConfigError):
    """A scenario file problem, tagged with its line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class AdvDecl:
    """One opponent: its id, kind, level and class (or the class bound to
    its mode), the class keywords its line set, and its script steps
    (add_step arguments).  ``checker``, built from the line, takes each
    step as it is read: the class rejects what it cannot run (a mode, a
    period, a step schedule) with a ValueError."""

    def __init__(self, aid, kind, level, cls, kw):
        self.aid = aid
        self.kind = kind  # a key of OPPONENTS
        self.level = level
        self.cls = cls
        self.kw = kw  # class keyword -> value, for the fields the line gave
        self.steps = []
        self.checker = cls(aid, **kw)

    def build(self, seed_shift):
        """A fresh opponent, its seed shifted by seed_shift."""
        adv = self.cls(self.aid, **{**self.kw, "seed":
                                    self.kw.get("seed", 0) + seed_shift})
        for step in self.steps:
            adv.add_step(*step)
        return adv


class Scenario:
    def __init__(self):
        self.construction = None
        self.alpha = None
        self.stages = 0
        self.seed = 0
        self.advs = {}  # id -> AdvDecl
        self.funs = {}  # e -> UseFunctional, in e order; no run changes one

    def levels(self, kind):
        """level -> declaration, for the opponents of kind."""
        return {d.level: d for d in self.advs.values() if d.kind == kind}

    def execute(self, seed=None, stages=None):
        """Build fresh opponents and run the named construction."""
        seed = self.seed if seed is None else seed
        stages = self.stages if stages is None else stages
        shift = 1000 * seed
        psis = {lv: d.build(shift) for lv, d in self.levels("psi").items()}
        fs = {lv: d.build(shift) for lv, d in self.levels("f").items()}
        trace = construction(self.construction).run(
            psis, fs, self.funs, self.alpha, stages)
        return trace, psis


def _fields(parts, lineno):
    """Key-value pairs from alternating tokens."""
    if len(parts) % 2:
        raise ScenarioError(lineno, f"dangling token {parts[-1]!r}")
    return list(zip(parts[::2], parts[1::2]))


def _nat_field(lineno, key, val):
    try:
        n = int(val)
    except ValueError:
        n = -1
    if n < 0:
        raise ScenarioError(lineno, f"{key} wants a natural, got {val!r}")
    return n


def _prob_field(lineno, key, val):
    try:
        p = float(val)
    except ValueError:
        p = -1.0
    if not 0.0 <= p <= 1.0:
        raise ScenarioError(lineno, f"{key} wants a probability in [0, 1], "
                                    f"got {val!r}")
    return p


def _cnf_field(lineno, key, val):
    try:
        return parse_cnf(val)
    except ValueError as ex:
        raise ScenarioError(lineno, f"{key}: {ex}")


class Kind(NamedTuple):
    # mode -> (what it builds, the fields it reads); None: the line names
    # no mode
    modes: dict
    fields: dict  # field -> (class keyword, parser)
    budget: str   # the keyword a line must set; its steps carry a marker


def _psi(mode):
    return partial(DeltaTwoAdversary, mode=mode)


_FLIPS = ("seed", "flip", "stab")  # what a psi that draws its flips reads

# The opponents a scenario declares.  A mode picks what a line builds and
# the fields it reads; a field that its mode does not read is an error,
# since it would change nothing.  Every default lives in the class
# signatures alone.
OPPONENTS = {
    "psi": Kind({None: (DeltaTwoAdversary, _FLIPS),
                 "stabilizing": (_psi("stabilizing"), _FLIPS),
                 "random": (_psi("random"), _FLIPS),
                 "alternating": (_psi("alternating"), ("period",)),
                 "scripted": (_psi("scripted"), ())},
                {"seed": ("seed", _nat_field),
                 "flip": ("flip", _prob_field),
                 "stab": ("stab", _nat_field),
                 "period": ("period", _nat_field)}, ""),
    "f": Kind({None: (ScriptedCaAdversary, ("g",)),
               "scripted": (ScriptedCaAdversary, ("g",)),
               "random": (BoundedCaAdversary, ("seed", "g", "change"))},
              {"seed": ("seed", _nat_field),
               "g": ("g", _cnf_field),
               "change": ("change_prob", _prob_field)}, "g"),
}


def _parse_step(sc, aid, parts, lineno):
    decl = sc.advs.get(aid)
    if decl is None:
        raise ScenarioError(lineno, f"step for undeclared opponent {aid!r}")
    budget = OPPONENTS[decl.kind].budget
    row = dict.fromkeys(("arg", "stage", "value") + ("marker",) * bool(budget))
    for key, val in _fields(parts, lineno):
        if key not in row:
            raise ScenarioError(lineno, f"unknown step field {key!r}")
        row[key] = val
    step = []
    for key, val in row.items():
        if val is None:
            raise ScenarioError(lineno, f"step misses {key}")
        parse = _cnf_field if key == "marker" else _nat_field
        step.append(parse(lineno, key, val))
    try:
        decl.checker.add_step(*step)
    except ValueError as ex:
        raise ScenarioError(lineno, str(ex))
    decl.steps.append(step)


def _parse_adv(sc, parts, lineno):
    if len(parts) < 2:
        raise ScenarioError(lineno, "adv wants an id and a kind")
    aid, kind = parts[0], parts[1]
    if kind == "step":
        return _parse_step(sc, aid, parts[2:], lineno)
    spec = OPPONENTS.get(kind)
    if spec is None:
        raise ScenarioError(lineno, f"unknown opponent kind {kind!r}")
    if aid in sc.advs:
        raise ScenarioError(lineno, f"opponent {aid!r} declared twice")
    level, mode, kw, given = 0, None, {}, []
    for key, val in _fields(parts[2:], lineno):
        if key == "level":
            level = _nat_field(lineno, key, val)
        elif key in spec.fields:
            name, parse = spec.fields[key]
            kw[name] = parse(lineno, key, val)
            given.append(key)
        elif key == "mode":
            mode = val
        else:
            raise ScenarioError(lineno, f"unknown opponent field {key!r}")
    for d in sc.advs.values():  # levels() keeps one opponent per level
        if d.kind == kind and d.level == level:
            raise ScenarioError(lineno, f"{kind} level {level} declared "
                                        f"twice: {d.aid!r} holds it")
    if mode not in spec.modes:
        raise ScenarioError(lineno, f"unknown {kind} mode {mode!r}")
    cls, reads = spec.modes[mode]
    for key in given:
        if key not in reads:
            which = f"mode {mode}" if mode else "without a mode"
            raise ScenarioError(lineno, f"{kind} {which} reads no {key}")
    if spec.budget and spec.budget not in kw:
        raise ScenarioError(lineno, f"opponent {aid!r} wants a budget "
                                    f"{spec.budget}")
    try:
        sc.advs[aid] = AdvDecl(aid, kind, level, cls, kw)
    except ValueError as ex:
        raise ScenarioError(lineno, str(ex))


def _parse_fun(sc, parts, lineno):
    if not parts:
        raise ScenarioError(lineno, "fun wants an index")
    e = _nat_field(lineno, "e", parts[0])
    row = {}
    for key, val in _fields(parts[1:], lineno):
        if key not in ("arg", "first", "delay", "policy"):
            raise ScenarioError(lineno, f"unknown fun field {key!r}")
        row[key] = val
    if "arg" not in row or "first" not in row:
        raise ScenarioError(lineno, "fun wants arg and first")
    kw, policy = {}, row.get("policy", "")
    if "delay" in row:
        kw["delay"] = _nat_field(lineno, "delay", row["delay"])
    if policy.startswith("low:"):
        kw["policy"], kw["offset"] = "low", _nat_field(lineno, "policy",
                                                         policy[4:])
    elif policy:
        kw["policy"] = policy
    fn = sc.funs.setdefault(e, UseFunctional(e))
    x = _nat_field(lineno, "arg", row["arg"])
    if x in fn.args:
        raise ScenarioError(lineno, f"fun {e} arg {x} declared twice")
    try:  # the functional knows its use policies
        fn.configure(x, _nat_field(lineno, "first", row["first"]), **kw)
    except ValueError as ex:
        raise ScenarioError(lineno, str(ex))


def load_scenario(text: str) -> Scenario:
    sc = Scenario()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word, *parts = line.split()
        if word == "construction":
            if len(parts) != 1 or parts[0] not in CONSTRUCTIONS:
                raise ScenarioError(lineno, f"unknown construction "
                                            f"{' '.join(parts)!r}")
            sc.construction = parts[0]
        elif word == "alpha":
            if len(parts) != 1:
                raise ScenarioError(lineno, "alpha wants one CNF value")
            sc.alpha = _cnf_field(lineno, "alpha", parts[0])
        elif word == "stages":
            if len(parts) != 1:
                raise ScenarioError(lineno, "stages wants one natural")
            sc.stages = _nat_field(lineno, "stages", parts[0])
        elif word == "seed":
            if len(parts) != 1:
                raise ScenarioError(lineno, "seed wants one natural")
            sc.seed = _nat_field(lineno, "seed", parts[0])
        elif word == "adv":
            _parse_adv(sc, parts, lineno)
        elif word == "fun":
            _parse_fun(sc, parts, lineno)
        else:
            raise ScenarioError(lineno, f"unknown directive {word!r}")
    if sc.construction is None:
        raise ScenarioError(0, "no construction named")
    if CONSTRUCTIONS[sc.construction].needs_alpha and sc.alpha is None:
        raise ScenarioError(0, f"{sc.construction} wants an alpha")
    for label, levels in [(kind, sc.levels(kind)) for kind in OPPONENTS] \
            + [("fun", sc.funs)]:
        if levels and sorted(levels) != list(range(len(levels))):
            raise ScenarioError(0, f"{label} levels not contiguous from 0")
    # the engines step the functionals and their arguments in dict order,
    # so the order of the fun lines must not reach the trace
    sc.funs = dict(sorted(sc.funs.items()))
    for fn in sc.funs.values():
        fn.args = dict(sorted(fn.args.items()))
    return sc
