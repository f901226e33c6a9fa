"""Every default under ``src/repro`` is set by the program, and every
public name is used by it.

A *settable value* is what ``make loc`` counts (it prints the length
of :func:`settable_values`): a parameter with a default on a public
function or method, or on an ``__init__``, under ``src/repro``.  A
default that no call sets is a knob without a caller -- its value is a
constant, and the code that would honour any other value is untested.
This census parses the program -- ``src/`` and the benchmark
workloads in ``benchmarks/ledger/`` -- and fails on any settable value
that no call there sets, unless a rule of :data:`ALLOWLIST` covers it.
A test or an example is not a caller: a knob only they turn is
configuration space the program never enters.

What counts as setting a parameter:

* a call by the function's name (the last name of ``f(...)`` or
  ``obj.f(...)``; a class name calls its ``__init__``, and a subclass
  without its own ``__init__`` calls its base's) that passes the
  parameter by keyword, reaches its position, or passes ``*args`` /
  ``**kwargs``;
* the same call through ``functools.partial(f, ...)``, the ledger's
  ``entry("f")(...)``, ``cls(...)``, ``super().__init__(...)``,
  ``Base.__init__(self, ...)``, and a name that
  ``pytest.mark.parametrize`` binds to ``f``.

Calls are matched by name alone, so any same-named function's call
counts, and a call through any other variable is not seen.  The census
runs to a fixed point: passing ``x=x`` on from a parameter that is
itself unset does not set anything.

To read a failure: each line names ``module:function:parameter``.
Delete the parameter and let its default become a module or class
constant (with any code that only forwarded it), or, if it is a
deliberate knob that no code path exercises, add a rule with its
reason to :data:`ALLOWLIST`.
"""

import ast
import fnmatch
import re
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: ``(module glob, function glob, parameter glob, keyword-only only)``
#: -- or a tuple of them, one rule -- -> why defaults there stay even
#: when no call sets them.
ALLOWLIST = {
    ("serve/server.py", "ServerThread.__init__", "host", False):
        "deployment setting: where an embedded server binds",
    ("serve/server.py", "ServerThread.__init__", "port", False):
        "deployment setting: where an embedded server binds",
    ("obs/invariants.py", "*", "*", False):
        "safety code: the checkers' bounds and strictness stay "
        "adjustable for whoever audits a trace",
    ("serve/jobs.py", "execute_*", "*", True):
        "HTTP schema: a serve job kind's params are its executor's "
        "keyword-only parameters",
    ("experiments/*.py", "run", "*", False):
        "CLI schema: an experiment's flags and serve params are its "
        "run() parameters",
    (("cluster/coordinator.py", "Coordinator.__init__", "clock", False),
     ("cluster/coordinator.py", "Coordinator.__init__", "sleep", False),
     ("cluster/coordinator.py", "Coordinator.__init__", "client_factory",
      False),
     ("cluster/membership.py", "Membership.__init__", "clock", False),
     ("cluster/membership.py", "Membership.__init__", "probe", False),
     ("serve/limits.py", "ClientRateLimiter.__init__", "clock", False),
     ("cluster/coordinator.py", "run_clustered_campaign", "coordinator",
      False),
     ("cluster/coordinator.py", "run_clustered_campaign", "store", False),
     ("cli.py", "main", "argv", False)):
        "test seams: each injects a fake (clock, sleep, client, probe, "
        "coordinator, store, argv) so a test drives the real code without "
        "real time, sockets or a command line",
    (("cca/nimbus.py", "NimbusCca.__init__", "pulse_*", False),
     ("core/probe.py", "ElasticityProbe.__init__", "pulse_*", False),
     ("fluid/probe.py", "FluidProbe.__init__", "pulse_*", False)):
        "§3.2 pulse parameters: E7's documented ablation "
        "(test_paper_scale.py::"
        "test_separation_survives_pulse_parameter_choices) varies the "
        "pulse frequency and amplitude on both backends",
}


def settable_values(src: Path):
    """``{(module, qualname, param): (key, position, def_id)}`` for
    every settable value; ``position`` is None for keyword-only.
    ``make loc`` prints its length."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()

        def visit(node, cls, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child, f"{prefix}{child.name}.")
                    continue
                if not isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                    visit(child, cls, prefix)
                    continue
                qualname = prefix + child.name
                if child.name == "__init__" or not child.name.startswith("_"):
                    _add(out, module, path, child, cls, qualname)
                visit(child, None, f"{qualname}.<locals>.")

        visit(ast.parse(path.read_text()), None, "")
    return out


def _add(out, module, path, func, cls, qualname):
    args = func.args
    positional = args.posonlyargs + args.args
    bound = cls is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in func.decorator_list)
    first = len(positional) - len(args.defaults)
    key = cls.name if func.name == "__init__" else func.name
    def_id = (path.resolve(), func.lineno)
    for i, arg in enumerate(positional[first:], start=first):
        out[(module, qualname, arg.arg)] = (key, i - bound, def_id)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out[(module, qualname, arg.arg)] = (key, None, def_id)


class _Call:
    """One call site: who it calls and what it passes."""

    def __init__(self, key, args, keywords, scope):
        self.key = key
        self.args = args
        self.spread = any(isinstance(a, ast.Starred) for a in args)
        self.keywords = {k.arg: k.value for k in keywords
                         if k.arg is not None}
        self.spread_kw = any(k.arg is None for k in keywords)
        self.scope = scope  # the enclosing function's def_id, or None


def _callee(call, cls):
    """``(key, args, keywords)`` of a call, or None if unresolvable."""
    f = call.func
    if (isinstance(f, ast.Call) and isinstance(f.func, ast.Name)
            and f.func.id == "entry" and f.args
            and isinstance(f.args[0], ast.Constant)):
        return f.args[0].value.split(".")[-1], call.args, call.keywords
    if ((isinstance(f, ast.Name) and f.id == "partial")
            or (isinstance(f, ast.Attribute) and f.attr == "partial")):
        if not call.args:
            return None
        inner = ast.Call(func=call.args[0], args=call.args[1:],
                         keywords=call.keywords)
        return _callee(inner, cls)
    if isinstance(f, ast.Name):
        if f.id == "cls" and cls is not None:
            return cls.name, call.args, call.keywords
        return f.id, call.args, call.keywords
    if not isinstance(f, ast.Attribute):
        return None
    if f.attr != "__init__":
        return f.attr, call.args, call.keywords
    if (isinstance(f.value, ast.Call) and isinstance(f.value.func, ast.Name)
            and f.value.func.id == "super"):
        if cls is None or not cls.bases:
            return None
        base = cls.bases[0]
        name = getattr(base, "id", getattr(base, "attr", None))
        return name, call.args, call.keywords
    if isinstance(f.value, ast.Name):
        return f.value.id, call.args[1:], call.keywords
    return None


def _parametrized(decorators):
    """``(argname, [function names])`` of each
    ``@pytest.mark.parametrize("argname", [f, g])``."""
    for d in decorators:
        if (isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                and d.func.attr == "parametrize" and len(d.args) == 2
                and isinstance(d.args[0], ast.Constant)
                and isinstance(d.args[1], (ast.List, ast.Tuple))):
            yield d.args[0].value, [v.id for v in d.args[1].elts
                                    if isinstance(v, ast.Name)]


def _calls(roots):
    """Every resolvable call under ``roots``, the class table
    ``{name: (first base name, defines __init__)}``, and the names
    parametrize binds to functions, ``{argname: {function name}}``."""
    calls, classes, aliases = [], {}, defaultdict(set)
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            resolved = path.resolve()

            def visit(node, cls, scope):
                for child in ast.iter_child_nodes(node):
                    inner_cls, inner_scope = cls, scope
                    for argname, names in _parametrized(
                            getattr(child, "decorator_list", ())):
                        aliases[argname].update(names)
                    if isinstance(child, ast.ClassDef):
                        inner_cls = child
                        base = child.bases[0] if child.bases else None
                        classes.setdefault(child.name, (
                            getattr(base, "id", getattr(base, "attr", None)),
                            any(isinstance(n, ast.FunctionDef)
                                and n.name == "__init__"
                                for n in child.body)))
                    elif isinstance(child, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                        inner_scope = (resolved, child.lineno)
                    elif isinstance(child, ast.Lambda):
                        inner_scope = None
                    if isinstance(child, ast.Call):
                        target = _callee(child, cls)
                        if target is not None and target[0] is not None:
                            calls.append(_Call(*target, scope))
                    visit(child, inner_cls, inner_scope)

            visit(ast.parse(path.read_text()), None, None)
    return calls, classes, aliases


def _init_owner(name, classes):
    """The class whose ``__init__`` a call to class ``name`` runs."""
    seen = set()
    while name in classes and not classes[name][1] and name not in seen:
        seen.add(name)
        name = classes[name][0]
    return name


def _patterns(rule):
    """A rule's ``(module, function, parameter, kwonly)`` patterns."""
    return [rule] if isinstance(rule[0], str) else list(rule)


def _matches(entry, position, pattern):
    (module, qualname, param), (mod, func, par, kwonly) = entry, pattern
    return (fnmatch.fnmatch(module, mod) and fnmatch.fnmatch(qualname, func)
            and fnmatch.fnmatch(param, par)
            and (not kwonly or position is None))


def _allowed(entry, position, allowlist):
    return any(_matches(entry, position, pattern)
               for rule in allowlist for pattern in _patterns(rule))


def census(src: Path, callers, allowlist=ALLOWLIST):
    """``(unset, allowlisted)``, each sorted: the settable values no
    call sets, and those ``allowlist`` exempts from the check.

    Allowlisted values count as set, so what they forward is set too.
    """
    defaults = settable_values(src)
    calls, classes, aliases = _calls(callers)
    by_key = defaultdict(list)
    for call in calls:
        targets = {call.key, _init_owner(call.key, classes),
                   *aliases.get(call.key, ())}
        for target in targets:
            by_key[target].append(call)
    allowed = {e for e, (_, pos, _) in defaults.items()
               if _allowed(e, pos, allowlist)}

    unset = set()
    while True:
        dead = defaultdict(set)
        for entry in unset:
            dead[defaults[entry][2]].add(entry[2])

        def sets(call, name, position):
            forwarded = dead.get(call.scope, ())

            def live(value):
                return not (isinstance(value, ast.Name)
                            and value.id in forwarded)

            if name in call.keywords:
                return live(call.keywords[name])
            if position is not None and position >= 0:
                if call.spread:
                    return True
                if position < len(call.args):
                    return live(call.args[position])
            return call.spread_kw

        grown = {entry for entry, (key, position, _) in defaults.items()
                 if entry not in allowed
                 and not any(sets(call, entry[2], position)
                             for call in by_key.get(key, ()))}
        if grown == unset:
            break
        unset = grown
    return sorted(unset), sorted(allowed)


#: What counts as the program: the callers of the census and the
#: readers of the public-name check.
PROGRAM = (ROOT / "src", ROOT / "benchmarks" / "ledger")


def _repo_census():
    return census(ROOT / "src" / "repro", PROGRAM)


def test_every_settable_value_has_a_caller():
    unset, _ = _repo_census()
    assert not unset, (
        "defaults no call sets (delete them, or allowlist with a "
        "reason):\n" + "\n".join(":".join(e) for e in unset))


def test_every_allowlist_rule_still_matches_a_default():
    defaults = settable_values(ROOT / "src" / "repro")
    for rule in ALLOWLIST:
        for pattern in _patterns(rule):
            assert any(_matches(entry, pos, pattern)
                       for entry, (_, pos, _) in defaults.items()), pattern


# -- public names ---------------------------------------------------------

#: ``(module, qualname)`` -> why a public name stays though nothing in
#: the program mentions it.
NAME_ALLOWLIST = {
    ("ndt/schema.py", "NdtDataset.load_jsonl"):
        "reads back what `repro synth-ndt` writes with save_jsonl",
    ("sim/trace.py", "parse_trace"):
        "the Mahimahi trace-file format TraceLink replays; no program "
        "path reads a trace file, and whether one should (a recorded "
        "cellular trace for E12) is an open ROADMAP item",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def public_names(src: Path):
    """``{(module, qualname): (name, path, line)}`` for every public
    module-level or class-level function, method and class under
    ``src`` (qualnames as :func:`settable_values` writes them)."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    if not child.name.startswith("_"):
                        out[(module, prefix + child.name)] = (
                            child.name, path.resolve(), child.lineno)
                    if isinstance(child, ast.ClassDef):
                        visit(child, f"{prefix}{child.name}.")
                elif not isinstance(child, ast.Lambda):
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def unreferenced_names(src: Path, readers, allowlist=NAME_ALLOWLIST):
    """Sorted ``(module, qualname)`` of the public names under ``src``
    that no file under ``readers`` mentions.

    Names are matched as words, like the census matches calls: any
    occurrence outside the name's own ``def``/``class`` line counts --
    a same-named definition elsewhere, a string, a comment or a
    docstring included -- so the check errs toward keeping a name.
    """
    seen = defaultdict(set)
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            resolved = path.resolve()
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for word in _WORD.findall(line):
                    seen[word].add((resolved, lineno))
    return sorted(key for key, (name, path, line) in
                  public_names(src).items()
                  if key not in allowlist and not seen[name] - {(path, line)})


def test_every_public_name_has_a_caller():
    unused = unreferenced_names(ROOT / "src" / "repro", PROGRAM)
    assert not unused, (
        "public names nothing in src/ or benchmarks/ledger/ mentions "
        "(delete them, or allowlist with a reason):\n"
        + "\n".join(":".join(key) for key in unused))


def test_every_name_allowlist_entry_still_names_a_public_name():
    names = public_names(ROOT / "src" / "repro")
    for key in NAME_ALLOWLIST:
        assert key in names, key


# -- the census itself, on a tiny tree ------------------------------------

_LIB = '''
def forward(a=1, b=2):
    return leaf(b=b)

def leaf(b=2, c=3):
    return b, c

def spread(d=4, e=5):
    pass

def partial_target(f=6):
    pass

def reached(g=7):
    pass

def kw_only(*, h=8):
    pass

class Base:
    def __init__(self, i=9):
        pass

class Child(Base):
    pass

def _private(j=10):
    pass

def aliased(k=11):
    pass
'''

_USE = '''
import functools
from lib import *

forward(a=0)
spread(**{"d": 1})
functools.partial(partial_target, f=1)()
entry("reached")(0)
Child(i=1)

@pytest.mark.parametrize("fn", [aliased])
def test_it(fn):
    fn(k=0)
'''


@pytest.fixture()
def tiny(tmp_path):
    src, use = tmp_path / "src", tmp_path / "use"
    src.mkdir()
    use.mkdir()
    (src / "lib.py").write_text(_LIB)
    (use / "use.py").write_text(_USE)
    return src, [src, use]


def test_census_follows_every_kind_of_call(tiny):
    unset, allowed = census(*tiny, allowlist={})
    # b is forwarded only from forward()'s unset b: unset at the fixed
    # point, and leaf's b with it.
    assert unset == [("lib.py", "forward", "b"), ("lib.py", "kw_only", "h"),
                     ("lib.py", "leaf", "b"), ("lib.py", "leaf", "c")]
    assert allowed == []


def test_census_treats_allowlisted_values_as_set(tiny):
    unset, allowed = census(*tiny, allowlist={
        ("lib.py", "forward", "b", False): "kept on purpose",
        ("lib.py", "*", "h", True): "kept on purpose"})
    assert allowed == [("lib.py", "forward", "b"),
                       ("lib.py", "kw_only", "h")]
    # forward()'s b is live now, so leaf's b is set by forwarding it.
    assert unset == [("lib.py", "leaf", "c")]


def test_name_check_counts_words_outside_the_def_line(tmp_path):
    src, use = tmp_path / "src", tmp_path / "use"
    src.mkdir()
    use.mkdir()
    (src / "lib.py").write_text(
        "def called():\n    pass\n\n"
        "def documented():\n    pass\n\n"
        "def orphan():\n    pass\n\n"
        "class A:\n    def twin(self):\n        pass\n\n"
        "class B:\n    def twin(self):\n        pass\n\n"
        "def _private():\n    pass\n")
    # A twin vouches for its same-named twin; a docstring mention counts.
    (use / "use.py").write_text('called()\n"""see documented"""\nA, B\n')
    assert unreferenced_names(src, [src, use], allowlist={}) \
        == [("lib.py", "orphan")]
    assert unreferenced_names(src, [src, use], allowlist={
        ("lib.py", "orphan"): "kept on purpose"}) == []
