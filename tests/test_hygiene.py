"""Source hygiene: no module of the package, test or demo imports a name it never
uses, every function the package exports and every fee and charge kind has a
consumer, every field of a package dataclass or NamedTuple is read, only one
module holds a thread pool, only one holds the rule checker of document keys, no
module reads the environment or evaluates a fee or charge date by date at
float(t), only the step table picks a side of a fee breakpoint, and the README
documents exactly the keys that checker knows."""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

from vastop import cli, model

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "vastop"
# __init__.py only re-exports, then calls _threads.pin_blas
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never loads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "io", "mc", "model", "lattice", "pde"}


@pytest.mark.parametrize("path", [*MODULES, *sorted(ROOT.glob("tests/*.py")),
                                  *sorted(ROOT.glob("demos/*.py"))], ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_name():
    src = "from __future__ import annotations\nimport os\nfrom dataclasses import dataclass, field\n" \
          "@dataclass\nclass A:\n    x: int = 0\n"
    assert unused_imports(src) == ["os (line 2)", "field (line 3)"]


# what reaches the package from outside: the demos, the benchmark workloads and
# the acceptance suite (with its fixtures)
CONSUMERS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"),
                    ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"])


def names_used(source: str) -> set[str]:
    """Every name a module mentions, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def unreached_functions(init: str, modules: dict[str, str], consumers: list[str]) -> list[str]:
    """`module.name` of each function that init re-exports and that neither a consumer
    nor a package module other than its own names; classes and constants are exempt."""
    used = {name: names_used(source) for name, source in modules.items()}
    reached = set().union(*map(names_used, consumers))
    found = []
    for node in ast.parse(init).body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in modules):
            continue
        functions = {d.name for d in ast.parse(modules[node.module]).body
                     if isinstance(d, ast.FunctionDef)}
        elsewhere = reached.union(*(u for name, u in used.items() if name != node.module))
        found += [f"{node.module}.{a.name}" for a in node.names
                  if a.name in functions and a.name not in elsewhere]
    return found


def test_every_exported_function_has_a_consumer():
    # a helper that only its own unit tests reach is not part of the package
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    consumers = [p.read_text(encoding="utf-8") for p in CONSUMERS]
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert unreached_functions(init, modules, consumers) == []


def test_reachability_checker_flags_an_unconsumed_function():
    init = ("from .m import C, K, f, g, h\nfrom .n import k\nfrom . import _threads\n"
            "_threads.pin_blas()\n")
    modules = {
        "m": "K = 1\nclass C:\n    pass\ndef f():\n    pass\ndef g():\n    pass\n"
             "def h():\n    return h\n",
        "n": "from . import m\ndef k():\n    return m.g()\n",
    }
    consumers = ["import vastop as vs\nvs.f()\n", "from vastop.n import k\nk()\n"]
    # f has a consumer, g another module, k a consumer; h only its own module
    assert unreached_functions(init, modules, consumers) == ["m.h"]


def record_fields(source: str) -> dict[str, list[str]]:
    """The fields of each dataclass and NamedTuple a module defines, by class name;
    ClassVar annotations are not fields."""
    def name(node) -> str | None:
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and ("dataclass" in map(name, node.decorator_list)
                                               or "NamedTuple" in map(name, node.bases)):
            found[node.name] = [
                stmt.target.id for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                and name(getattr(stmt.annotation, "value", stmt.annotation)) != "ClassVar"]
    return found


def names_read(source: str) -> set[str]:
    """The attribute names a module loads, and the string literals it hands to
    getattr: as the argument itself, or as an element of the tuple or list that
    the loop variable it hands over runs through."""
    nodes = list(ast.walk(ast.parse(source)))
    read = {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    loops: dict[str, set[str]] = {}  # loop variable -> the string literals it runs through
    for n in nodes:
        if (isinstance(n, (ast.For, ast.comprehension)) and isinstance(n.target, ast.Name)
                and isinstance(n.iter, (ast.Tuple, ast.List))):
            loops.setdefault(n.target.id, set()).update(
                e.value for e in n.iter.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str))
    for n in nodes:
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "getattr" and len(n.args) > 1:
            key = n.args[1]
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                read.add(key.value)
            elif isinstance(key, ast.Name):
                read |= loops.get(key.id, set())
    return read


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    """`module.Class.field` of each field of a package dataclass or NamedTuple whose
    name no reader loads as an attribute or hands to getattr as a literal."""
    read = set().union(*map(names_read, readers))
    return [f"{module}.{cls}.{field}" for module, source in modules.items()
            for cls, fields in record_fields(source).items()
            for field in fields if field not in read]


def test_every_result_field_is_read():
    # a field that is written and never read is not part of the package's results
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in
               [*PACKAGE.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py"),
                *ROOT.glob("tests/*.py")]]
    assert unread_fields(modules, readers) == []


def test_field_checker_flags_every_form():
    modules = {"m": "from dataclasses import dataclass\nfrom typing import ClassVar, NamedTuple\n"
                    "@dataclass(frozen=True)\nclass A:\n    a: int\n    b: int\n"
                    "    k: ClassVar[int] = 1\n"
                    "@dataclasses.dataclass\nclass B:\n    c: int\n    d: int = 0\n"
                    "class C(NamedTuple):\n    e: int\n    f: int\n"
                    "class D:\n    g: int\n"}
    readers = ["x = r.a\ny = getattr(r, 'c')\nr.b = 1\n",
               "z = [getattr(r, key) for key in ('e', 'zz')]\nw = C(e=1, f=2)\n",
               "for key in ['d']:\n    print(key)\n"]
    # an attribute load and a getattr literal read; a store, a keyword, a ClassVar,
    # a plain class and a loop literal that reaches no getattr do not
    assert unread_fields(modules, readers) == ["m.A.b", "m.B.d", "m.C.f"]


def string_literals(source: str) -> set[str]:
    """Every string constant of a module, docstrings whole."""
    return {n.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def unreached_kinds(kinds, document_kinds, sources: list[str]) -> list[str]:
    """Each of kinds that a run document cannot give and that no source names as a
    string literal."""
    named = set().union(*map(string_literals, sources))
    return [kind for kind in kinds if kind not in document_kinds and kind not in named]


def test_every_scenario_kind_has_a_consumer():
    # a fee or charge kind that only model.py and its unit tests build is not part of the
    # package; the smooth fee is the one kind no document can give
    sources = [p.read_text(encoding="utf-8") for p in [*MODULES, *CONSUMERS] if p.name != "model.py"]
    for section, library_kinds in (("fee", ("smooth",)), ("charge", ())):
        document_kinds = model._SCENARIO_RULES[section]["kind"]
        kinds = (*document_kinds, *library_kinds)
        assert unreached_kinds(kinds, document_kinds, sources) == [], section


def test_kind_checker_flags_an_unreached_kind():
    kinds = ("constant", "smooth", "state", "general")
    sources = ['fee = FeeSpec("smooth", rate_fn=f)\n',
               '"""The state kind."""\nstate = 1  # "general"\n']
    # constant is a document kind, smooth a literal; a docstring, a name or a comment is not
    assert unreached_kinds(kinds, {"constant": {}}, sources) == ["state", "general"]


def pool_imports(source: str) -> list[str]:
    """Imports of concurrent.futures, or of a name from it, that a module makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("concurrent")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent"):
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


def test_thread_pool_lives_in_one_module():
    # the pool logic exists once: every other module maps over _threads.ordered_map
    users = {p.name for p in PACKAGE.glob("*.py")
             if pool_imports(p.read_text(encoding="utf-8"))
             or "ThreadPoolExecutor" in p.read_text(encoding="utf-8")}
    assert users == {"_threads.py"}


def test_pool_checker_flags_every_import_form():
    src = "import concurrent.futures\nfrom concurrent.futures import ThreadPoolExecutor as P\n" \
          "from concurrent import futures\n"
    assert pool_imports(src) == ["concurrent.futures", "concurrent.futures.ThreadPoolExecutor",
                                 "concurrent.futures"]


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """The readers of the environment (os.environ, os.getenv and their bytes forms)
    that a module names or imports."""
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return sorted(ENVIRONMENT_READERS & (names_used(source) | imported))


def test_no_module_reads_the_environment():
    # a run follows its document and what the code can observe (the CPUs the process
    # may run on), never a variable of the environment
    found = {p.name: environment_reads(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_environment_guard_flags_every_form():
    src = "import os\nfrom os import getenv as g, environb\nx = os.environ.get('A')\n" \
          "y = os.getenv('B') or g('C')\n"
    assert environment_reads(src) == ["environ", "environb", "getenv"]
    assert environment_reads("import os\nn = os.sched_getaffinity(0)\n") == []


def rule_checker_parts(source: str) -> list[str]:
    """Interval parsers a module defines and calls of is_finite_number it makes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and "interval" in node.name:
            found.append(f"def {node.name}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "is_finite_number":
                found.append("is_finite_number()")
    return found


def test_rule_checker_lives_in_one_module():
    # every document key is checked by model.checked_section: no module keeps a checker of its own
    users = {p.name for p in PACKAGE.glob("*.py") if rule_checker_parts(p.read_text(encoding="utf-8"))}
    assert users == {"model.py"}


def test_rule_checker_guard_flags_every_form():
    src = "from vastop import model\ndef _in_interval(v, s):\n    return model.is_finite_number(v)\n" \
          "def parse_interval(s):\n    return is_finite_number(s)\n"
    assert sorted(rule_checker_parts(src)) == ["def _in_interval", "def parse_interval",
                                               "is_finite_number()", "is_finite_number()"]


DATE_EVALUATORS = {"fee", "rate_right", "charge", "dt"}


def scalar_date_calls(source: str) -> list[str]:
    """Calls of a fee or charge evaluator on a float(...) argument, by name and line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in DATE_EVALUATORS and any(
                    isinstance(a, ast.Call) and getattr(a.func, "id", None) == "float"
                    for a in [*node.args, *(k.value for k in node.keywords)]):
                found.append(f"{name} (line {node.lineno})")
    return found


def test_fee_and_charge_are_evaluated_per_date_vector():
    # each layer evaluates its dates as one vector, never date by date through float()
    found = {p.name: scalar_date_calls(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_scalar_date_checker_flags_every_form():
    src = "c = scn.fee(float(t))\nd = fee.rate_right(t=float(tn[n]))\ng = charge(1.0, float(t))\n" \
          "k = scn.charge.dt(float(t)) * x\nok = scn.fee(tn[:-1]), float(scn.charge(t)), scn.dt\n"
    assert scalar_date_calls(src) == ["fee (line 1)", "rate_right (line 2)", "charge (line 3)",
                                      "dt (line 4)"]


def fee_side_calls(source: str) -> list[str]:
    """Calls that pick a side of a fee breakpoint, c(t) as `<x>.fee(...)` or c(t+)
    as `rate_right(...)`, by name and line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "rate_right" or (name == "fee" and isinstance(func, ast.Attribute)):
                found.append(f"{name} (line {node.lineno})")
    return found


def test_fee_sides_are_taken_in_the_step_table():
    # which side of a breakpoint each layer takes is one entry of surfaces.step_table;
    # model.py defines the rates and L(t), and every other module reads the table
    found = {p.name: fee_side_calls(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")
             if p.name not in ("model.py", "surfaces.py")}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_fee_side_checker_flags_every_form():
    src = "c = scn.fee(tn[:-1])\nd = self.scn.fee.rate_right(t)\ne = rate_right(t)\n" \
          "f = batch.scn.fee(t=0.5 * (a + b))[n]\n" \
          "ok = scn.fee.integral(a, b), scn.fee, scn.charge(t), fee_rate(t), table.node_fee[:, 0]\n"
    assert fee_side_calls(src) == ["fee (line 1)", "rate_right (line 2)", "rate_right (line 3)",
                                   "fee (line 4)"]


KEY_TABLE_HEADER ="| key | default | type and range | null | meaning |"


def documented_keys(readme: str) -> list[str]:
    """The keys named in the first cell of each row of the README's key table, a
    leading-dot name such as `.F0` taking the section of the name before it."""
    lines = readme.splitlines()
    keys = []
    for line in lines[lines.index(KEY_TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        section = ""
        for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
            name = section + name if name.startswith(".") else name
            section = name.partition(".")[0]
            keys.append(name)
    return keys


def rule_keys() -> list[str]:
    """Every key of the run document: the rule tables' keys, per-kind keys included."""
    keys = ["tasks", "out"]
    for rules in (cli._RULES, model._SCENARIO_RULES):
        for section, section_rules in rules.items():
            kinds = section_rules.get("kind")
            names = {"kind"}.union(*kinds.values()) if isinstance(kinds, dict) else section_rules
            keys += [f"{section}.{name}" for name in names]
    return keys


def test_readme_documents_every_key_once():
    # a key that leaves the rule tables leaves the README, and a new one enters both
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert sorted(documented_keys(readme)) == sorted(rule_keys())


def test_key_table_reader_expands_and_stops():
    readme = f"{KEY_TABLE_HEADER}\n| --- |\n| `contract.G`, `.F0` | required |\n" \
             "| `tasks` | required |\n\n| `grid.N` | 360 |\n"
    assert documented_keys(readme) == ["contract.G", "contract.F0", "tasks"]
