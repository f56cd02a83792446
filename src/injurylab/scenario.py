"""Line-oriented scenario files: declarations of one construction run.

A scenario names the construction, the ordinal bound, the stage budget,
the opponents and the functionals, plus optional verifier toggles.  The
same scenario can be replayed under different seeds for campaigns.
"""

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
    """One opponent: its kind, level, generation mode, and script."""

    def __init__(self, aid, kind, level, mode, g=None, seed=0,
                 flip=0.3, stab=40, period=1, change=0.25):
        self.aid = aid
        self.kind = kind  # "psi" | "f"
        self.level = level
        self.mode = mode
        self.g = g
        self.seed = seed
        self.flip = flip
        self.stab = stab
        self.period = period
        self.change = change
        self.steps = []  # (arg, stage, value, marker or None)

    def build(self, seed_shift=0):
        seed = self.seed + seed_shift
        if self.kind == "psi":
            adv = DeltaTwoAdversary(self.aid, self.mode, seed=seed,
                                    flip=self.flip, stab=self.stab,
                                    period=self.period)
            for x, s, v, _ in self.steps:
                adv.add_step(x, s, v)
            return adv
        if self.mode == "scripted":
            adv = ScriptedCaAdversary(self.aid, self.g)
        else:
            adv = BoundedCaAdversary(self.aid, self.g, seed=seed,
                                     change_prob=self.change)
        for x, s, v, m in self.steps:
            adv.add_step(x, s, v, m if m is not None else self.g)
        return adv


class FunDecl:
    """One functional argument schedule line."""

    def __init__(self, e):
        self.e = e
        self.args = []  # (x, first, delay, policy, offset)

    def build(self):
        fn = UseFunctional(self.e)
        for x, first, delay, policy, offset in self.args:
            fn.configure(x, first=first, delay=delay, policy=policy,
                         offset=offset)
        return fn


class Scenario:
    def __init__(self):
        self.construction = None
        self.alpha = None
        self.stages = 0
        self.seed = 0
        self.advs = {}  # id -> AdvDecl
        self.funs = {}  # e -> FunDecl
        self.verify = {}  # check name -> bool
        self.verify_lines = {}  # check name -> line of its last verify line

    def psi_levels(self):
        return {d.level: d for d in self.advs.values() if d.kind == "psi"}

    def f_levels(self):
        return {d.level: d for d in self.advs.values() if d.kind == "f"}

    def execute(self, seed=None, stages=None):
        """Build fresh opponents and run the named construction."""
        seed = self.seed if seed is None else seed
        stages = self.stages if stages is None else stages
        shift = 1000 * seed
        psis = {lv: d.build(shift) for lv, d in self.psi_levels().items()}
        fs = {lv: d.build(shift) for lv, d in self.f_levels().items()}
        funs = {e: d.build() for e, d in self.funs.items()}
        trace = construction(self.construction).run(
            psis, fs, funs, self.alpha, stages, seed)
        return trace, psis

    def checks(self, psis, replay):
        """Run the construction's verifier on the trace's replay, honoring
        the toggles."""
        out = construction(self.construction).verify(psis, replay)
        return [c for c in out if self.verify.get(c.name, True)]

    def validate(self):
        """Check the alpha requirement and the verify lines against the
        named construction; rerun after the construction is overridden."""
        entry = construction(self.construction)
        if entry.needs_alpha and self.alpha is None:
            raise ScenarioError(0, f"{self.construction} wants an alpha")
        for name, lineno in self.verify_lines.items():
            if name not in entry.checks:
                raise ScenarioError(lineno, f"{self.construction} has no "
                                            f"check {name!r}")


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


def _parse_adv(sc, parts, lineno):
    if len(parts) < 2:
        raise ScenarioError(lineno, "adv wants an id and a kind")
    aid, kind = parts[0], parts[1]
    if kind == "step":
        decl = sc.advs.get(aid)
        if decl is None:
            raise ScenarioError(lineno, f"step for undeclared opponent "
                                        f"{aid!r}")
        row = {"arg": None, "stage": None, "value": None, "marker": None}
        for key, val in _fields(parts[2:], lineno):
            if key not in row:
                raise ScenarioError(lineno, f"unknown step field {key!r}")
            row[key] = val
        for key in ("arg", "stage", "value"):
            if row[key] is None:
                raise ScenarioError(lineno, f"step misses {key}")
        marker = None
        if row["marker"] is not None:
            try:
                marker = parse_cnf(row["marker"])
            except ValueError as ex:
                raise ScenarioError(lineno, str(ex))
        decl.steps.append((_nat_field(lineno, "arg", row["arg"]),
                           _nat_field(lineno, "stage", row["stage"]),
                           _nat_field(lineno, "value", row["value"]),
                           marker))
        try:  # the opponent's add_step knows which marker schedules hold
            decl.build()
        except ValueError as ex:
            raise ScenarioError(lineno, str(ex))
        return
    if kind not in ("psi", "f"):
        raise ScenarioError(lineno, f"unknown opponent kind {kind!r}")
    if aid in sc.advs:
        raise ScenarioError(lineno, f"opponent {aid!r} declared twice")
    decl = AdvDecl(aid, kind, level=0,
                   mode="scripted" if kind == "f" else "stabilizing")
    for key, val in _fields(parts[2:], lineno):
        if key == "level":
            decl.level = _nat_field(lineno, key, val)
        elif key == "mode":
            decl.mode = val
        elif key == "seed":
            decl.seed = _nat_field(lineno, key, val)
        elif key == "g" and kind == "f":
            try:
                decl.g = parse_cnf(val)
            except ValueError as ex:
                raise ScenarioError(lineno, str(ex))
        elif key in ("flip", "change"):
            setattr(decl, key, _prob_field(lineno, key, val))
        elif key in ("stab", "period"):
            setattr(decl, key, _nat_field(lineno, key, val))
        else:
            raise ScenarioError(lineno, f"unknown opponent field {key!r}")
    if kind == "psi" and decl.mode not in ("stabilizing", "alternating",
                                           "random", "scripted"):
        raise ScenarioError(lineno, f"unknown psi mode {decl.mode!r}")
    if kind == "f":
        if decl.g is None:
            raise ScenarioError(lineno, f"opponent {aid!r} wants a budget g")
        if decl.mode not in ("scripted", "random"):
            raise ScenarioError(lineno, f"unknown f mode {decl.mode!r}")
    sc.advs[aid] = decl


def _parse_fun(sc, parts, lineno):
    if not parts:
        raise ScenarioError(lineno, "fun wants an index")
    e = _nat_field(lineno, "e", parts[0])
    decl = sc.funs.setdefault(e, FunDecl(e))
    row = {"arg": None, "first": None, "delay": "0", "policy": "fresh"}
    for key, val in _fields(parts[1:], lineno):
        if key not in row:
            raise ScenarioError(lineno, f"unknown fun field {key!r}")
        row[key] = val
    if row["arg"] is None or row["first"] is None:
        raise ScenarioError(lineno, "fun wants arg and first")
    policy, offset = row["policy"], 1
    if policy.startswith("low:"):
        policy, offset = "low", _nat_field(lineno, "policy", policy[4:])
    elif policy not in ("fresh", "low"):
        raise ScenarioError(lineno, f"unknown policy {row['policy']!r}")
    decl.args.append((_nat_field(lineno, "arg", row["arg"]),
                      _nat_field(lineno, "first", row["first"]),
                      _nat_field(lineno, "delay", row["delay"]),
                      policy, offset))


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
            try:
                sc.alpha = parse_cnf(parts[0])
            except ValueError as ex:
                raise ScenarioError(lineno, str(ex))
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
        elif word == "verify":
            if len(parts) != 2 or parts[1] not in ("on", "off"):
                raise ScenarioError(lineno, "verify wants <name> on|off")
            sc.verify[parts[0]] = parts[1] == "on"
            sc.verify_lines[parts[0]] = lineno
        else:
            raise ScenarioError(lineno, f"unknown directive {word!r}")
    if sc.construction is None:
        raise ScenarioError(0, "no construction named")
    sc.validate()
    for label, levels in (("psi", sc.psi_levels()),
                          ("f", sc.f_levels()),
                          ("fun", sc.funs)):
        if levels and sorted(levels) != list(range(len(levels))):
            raise ScenarioError(0, f"{label} levels not contiguous from 0")
    return sc
