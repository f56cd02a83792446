"""No library code or parameter that only tests use.

An AST scan of src/injurylab lists every module-level function and class
and every public method, and looks for a reference to each name (a name,
an attribute or an import) anywhere in the package.  The scan matches
names only, so a name shared with a used definition counts as used.

A second scan checks the parameters of every module-level function and
method.  Each parameter must be read in its function's body, unless a
subclass in the package overrides the method, whose signature it then
serves.  A parameter with a default must be left out by at least one
call in the package.  Calls are matched by name as above: a call of a
class, or of a subclass without its own ``__init__``, and a
``super().__init__`` call count for that ``__init__``.  A function that
the package never calls by name is not judged, nor are ``*args`` and
``**kwargs``, nor a call that passes ``*`` or ``**`` arguments.

A third scan keeps the quota-list protocol in one module: the kinds of
its events are named only in budgeted.py and in trace.py's table of
event kinds.

A fourth scan finds write-only attributes: every attribute the package
stores on an object (``obj.name = ...``) must be loaded somewhere in
the package, again matched by name.  A load through ``self`` counts only
within its class's hierarchy, so a class's own attribute is not kept by
another class's attribute of the same name.  A load that only feeds a
store of its own name does not count: one in the value of an assignment
to that attribute, or in the test of an ``if`` whose body only assigns
it.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "injurylab")

# Definitions kept for callers outside the package.  Test-only code
# lives in tests/, as the change orderings and the functional's reference
# run do in tests/orderings.py; what stays here, the benchmark's tracer
# wraps by name.
ALLOWED = {
    # bench/layers.py wraps it as the functional.members_at layer, and
    # the tier-1 bench-layer tests install that tracer
    "functional.EnumerableSet.members_at",
}


# Parameters kept for callers outside the package: the benchmark's
# bench/test_shapes.py and the tests.
ALLOWED_PARAMETERS = {
    **{f"{m}.run(seed)": "unread, since the opponents carry their own "
                         "seeds; the bench shapes and the acceptance tests "
                         "pass one"
       for m in ("nonlow_low2", "low_alpha", "nonlow_alpha")},
    **{f"functional.UseFunctional.configure({p})":
       "the scenario loader passes those a fun line gives, through **; "
       "the bench shapes and the scripted-opponent tests take the defaults"
       for p in ("delay", "policy", "offset")},
}


def parse_package():
    """module -> its AST, for every module of the package."""
    out = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                out[fname[:-3]] = ast.parse(fh.read())
    return out


def definitions_and_references():
    defs, refs = [], set()
    for module, tree in parse_package().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item.name)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.asname or node.name)
    return defs, refs


def test_every_library_definition_has_a_caller_in_the_library():
    defs, refs = definitions_and_references()
    assert len(defs) > 100
    unused = sorted(qual for qual, name in defs
                    if name not in refs and qual not in ALLOWED)
    assert unused == []


def test_allowlist_names_only_unreferenced_definitions():
    defs, refs = definitions_and_references()
    allowed = {qual for qual, name in defs
               if qual in ALLOWED and name not in refs}
    assert allowed == ALLOWED


def callee(call):
    """The name a call is matched by: the called name or attribute."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else None


def supplies(call, index, param):
    """Whether call passes param, the positional parameter at index (None
    for a keyword-only one).  A * or ** argument may pass anything."""
    if any(isinstance(a, ast.Starred) for a in call.args) \
            or any(k.arg is None for k in call.keywords):
        return True
    if index is not None and index < len(call.args):
        return True
    return any(k.arg == param.arg for k in call.keywords)


class Package:
    """The functions, classes and calls of the package."""

    def __init__(self):
        self.functions = []  # (qualified name, class name or None, def)
        self.classes = {}  # class name -> ClassDef
        self.calls = []  # (name it is matched by, Call)
        for module, tree in parse_package().items():
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    self.functions.append((f"{module}.{node.name}", None,
                                           node))
                elif isinstance(node, ast.ClassDef):
                    self.classes[node.name] = node
                    self.functions += [
                        (f"{module}.{node.name}.{item.name}", node.name, item)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            self.calls += [(callee(node), node) for node in ast.walk(tree)
                           if isinstance(node, ast.Call)]
        # super().__init__(...) in a class calls its base's __init__
        for name, cls in self.classes.items():
            for node in ast.walk(cls):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "__init__" \
                        and isinstance(node.func.value, ast.Call) \
                        and callee(node.func.value) == "super":
                    self.calls += [(base, node) for base in self.bases(name)]

    def bases(self, name):
        return [b.id for b in self.classes[name].bases
                if isinstance(b, ast.Name) and b.id in self.classes]

    def methods(self, name):
        return {item.name for item in self.classes[name].body
                if isinstance(item, ast.FunctionDef)}

    def subclasses(self, name):
        direct = [c for c in self.classes if name in self.bases(c)]
        return direct + [d for c in direct for d in self.subclasses(c)]

    def parameters(self, cls, fn):
        """The positional and keyword-only parameters of fn, without a
        method's self."""
        positional = fn.args.posonlyargs + fn.args.args
        if cls is not None and positional \
                and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        return positional, fn.args.kwonlyargs

    def unread(self):
        found = []
        for qual, cls, fn in self.functions:
            if cls is not None and any(fn.name in self.methods(sub)
                                       for sub in self.subclasses(cls)):
                continue  # the signature serves the overrides
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            positional, keyword = self.parameters(cls, fn)
            found += [f"{qual}({p.arg})" for p in positional + keyword
                      if p.arg not in read]
        return found

    def always_supplied(self):
        found = []
        for qual, cls, fn in self.functions:
            names = {fn.name}
            if fn.name == "__init__":
                names = {cls} | {sub for sub in self.subclasses(cls)
                                 if "__init__" not in self.methods(sub)}
            calls = [c for name, c in self.calls if name in names]
            positional, keyword = self.parameters(cls, fn)
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i, p) for i, p in enumerate(positional)
                         if i >= first]
            defaulted += [(None, p) for p, d in zip(keyword,
                                                    fn.args.kw_defaults)
                          if d is not None]
            found += [f"{qual}({p.arg})" for i, p in defaulted
                      if calls and all(supplies(c, i, p) for c in calls)]
        return found


def test_every_parameter_is_read_and_every_default_is_left_out():
    pkg = Package()
    assert len(pkg.functions) > 200
    found = pkg.unread() + pkg.always_supplied()
    assert sorted(f for f in found if f not in ALLOWED_PARAMETERS) == []


# The kinds of the quota-list protocol's events.
LIST_EVENTS = {"qlist-set", "qlist-remove", "phi-set"}


def test_only_budgeted_writes_or_reads_the_list_events():
    # budgeted.py owns the protocol; trace.py lists the kinds in its table
    # of event kinds, and no other module names them
    where = {}
    for module, tree in parse_package().items():
        table = set()
        if module == "trace":
            table = {id(n) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets]
                     == ["EVENT_KINDS"]
                     for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in LIST_EVENTS \
                    and id(node) not in table:
                where.setdefault(module, set()).add(node.value)
    assert where == {"budgeted": LIST_EVENTS}


def test_parameter_allowlist_names_only_findings():
    pkg = Package()
    found = set(pkg.unread() + pkg.always_supplied())
    assert set(ALLOWED_PARAMETERS) <= found


# Attributes kept although the package never loads them.
ALLOWED_ATTRIBUTES = {
    "scenario.ScenarioError.lineno": "the line a scenario error names; "
                                     "the tests read it",
    "functional.UseFunctional.e": "the functional's index, which "
                                  "tests/orderings.py reads; the bench "
                                  "shapes build UseFunctional(e)",
}


def assigned(stmt):
    """The attribute names stmt assigns, where it assigns attributes
    alone, else the empty set."""
    if isinstance(stmt, ast.Assign) and all(isinstance(t, ast.Attribute)
                                            for t in stmt.targets):
        return {t.attr for t in stmt.targets}
    return set()


def feeding_loads(tree):
    """The ids of the attribute loads in tree that only feed a store of
    their own name: those in the value of an assignment to it, and those
    in the test of an ``if``, with no ``else``, whose body only assigns
    it."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            names, where = assigned(node), node.value
        elif isinstance(node, ast.If) and not node.orelse:
            each = [assigned(stmt) for stmt in node.body]
            names, where = set().union(*each), node.test
            if not all(each) or len(names) != 1:
                continue
        else:
            continue
        out |= {id(n) for n in ast.walk(where)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load) and n.attr in names}
    return out


def write_only_attributes(trees):
    """The attribute names stored on an object in trees (module -> its
    AST), and those stores, qualified by module and top-level class,
    whose name no load in trees names.  A load that only feeds a store
    of its own name (``feeding_loads``) names nothing.  A load or store
    through ``self`` in a top-level class is the class's own: such a
    load names the attribute for that class, its bases and its
    subclasses (a method runs on instances of those), and such a store
    is named only by those loads and by loads through other objects."""
    classes = {top.name: top for tree in trees.values() for top in tree.body
               if isinstance(top, ast.ClassDef)}

    def bases(name):
        return {b.id for b in classes[name].bases
                if isinstance(b, ast.Name) and b.id in classes}

    def lineage(name):
        """name and its bases, transitively."""
        out, todo = set(), [name]
        while todo:
            cls = todo.pop()
            out.add(cls)
            todo += bases(cls) - out
        return out

    stored, loaded = {}, set()  # loaded: (class or None, name)
    stores = []  # (qualified name, class or None, name)
    for module, tree in trees.items():
        feeding = feeding_loads(tree)
        for top in tree.body:
            cls = top.name if isinstance(top, ast.ClassDef) else None
            owner = f"{module}.{cls}" if cls else module
            for node in ast.walk(top):
                if not isinstance(node, ast.Attribute):
                    continue
                on_self = isinstance(node.value, ast.Name) \
                    and node.value.id == "self"
                key = (cls if on_self else None, node.attr)
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, set()).add(
                        f"{owner}.{node.attr}")
                    stores.append((f"{owner}.{node.attr}",) + key)
                elif id(node) not in feeding:
                    loaded.add(key)
    # the (class, name) pairs the self loads name: one in C names those of
    # C's lineage and of every class whose lineage holds C
    named = {(c, name) for c_load, name in loaded if c_load is not None
             for c in classes if c in lineage(c_load) or c_load in lineage(c)}
    any_load = {name for _, name in loaded}
    return stored, sorted({qual for qual, cls, name in stores
                           if (None, name) not in loaded
                           and (cls, name) not in named
                           and (cls is not None or name not in any_load)})


def test_every_stored_attribute_is_loaded():
    stored, found = write_only_attributes(parse_package())
    assert len(stored) > 50
    assert [q for q in found if q not in ALLOWED_ATTRIBUTES] == []


def test_attribute_allowlist_names_only_findings():
    _, found = write_only_attributes(parse_package())
    assert set(ALLOWED_ATTRIBUTES) <= set(found)


# Shaped like a deleted attribute, ApproxTrace.stages, which the class
# read only to grow it: stages and total are written only, events is
# read.
GROWN_ONLY = """
class Trace:
    def __init__(self):
        self.stages = 0
        self.total = 0
        self.events = []

    def record(self, stage, event):
        if stage + 1 > self.stages:
            self.stages = stage + 1
        self.total = self.total + len(self.events)
        self.events.append(event)
"""


def test_a_load_that_feeds_its_own_store_reads_nothing():
    _, found = write_only_attributes({"grown": ast.parse(GROWN_ONLY)})
    assert found == ["grown.Trace.stages", "grown.Trace.total"]


# Shaped like ApproxTrace.stages when RunTrace and Scenario still loaded
# a .stages of their own: Grown stores stages and reads it only to grow
# it, while Run loads its own stages.  Base reads a step that only its
# subclass Steps stores, and Steps reads the base's start.
SHARED_NAME = """
class Grown:
    def __init__(self):
        self.stages = 0

    def record(self, stage):
        if stage + 1 > self.stages:
            self.stages = stage + 1


class Run:
    def __init__(self, stages):
        self.stages = stages

    def each(self):
        return range(self.stages)


class Base:
    def __init__(self):
        self.start = 0

    def next(self):
        return self.start + self.step


class Steps(Base):
    def __init__(self):
        super().__init__()
        self.step = 2

    def first(self):
        return self.start
"""


def test_a_load_through_self_names_its_own_class_only():
    _, found = write_only_attributes({"shared": ast.parse(SHARED_NAME)})
    assert found == ["shared.Grown.stages"]
