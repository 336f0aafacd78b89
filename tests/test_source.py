"""Checks on the library's source text."""

import ast
import re
import sys
from pathlib import Path

import pytest

import cuberadius

SOURCES = sorted(Path(cuberadius.__file__).parent.glob("*.py"))


def unread_parameters(source: str) -> list:
    """(function name, line, parameter) for every parameter of a function or
    lambda that its body never reads; self and cls are exempt.  A read in a
    nested function or lambda counts."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        found += [(name, node.lineno, p) for p in params if p not in read and p not in ("self", "cls")]
    return found


def test_the_guard_sees_every_kind_of_parameter():
    src = "def f(a, /, b, *c, d, **e):\n    return b\ng = lambda x, y: x\nclass C:\n    def m(self, z):\n        pass\n"
    assert unread_parameters(src) == [("f", 1, "a"), ("f", 1, "c"), ("f", 1, "d"), ("f", 1, "e"),
                                      ("<lambda>", 3, "y"), ("m", 5, "z")]
    # a read inside a nested function or lambda is a read
    assert unread_parameters("def f(a):\n    return lambda: a\n") == []


def test_every_parameter_is_read():
    assert SOURCES
    unread = {path.name: found for path in SOURCES if (found := unread_parameters(path.read_text()))}
    assert unread == {}


def test_only_serialize_formats_reals():
    # one module writes every 17-digit real, so one rule decides the bytes of stdout
    texts = {path.name: path.read_text() for path in SOURCES if path.name != "serialize.py"}
    assert texts and [name for name, text in texts.items() if "%.17g" in text or "fmt17" in text] == []


def functions_matching(pattern: str) -> list:
    """(module, function) of every function in the library whose source matches pattern."""
    found = []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and re.search(pattern, ast.get_source_segment(text, node)):
                found.append((path.stem, node.name))
    return found


def test_one_home_for_each_exact_integer_step():
    # every exact ratio becomes a log in one quotient, and every binomial row is one walk
    assert functions_matching(r"\.bit_length\(\) - \w+\.bit_length\(\)") == [("radius", "_log_ratio")]
    assert functions_matching(r"\* \((\w+) - (\w+)\) // \(\2 \+ 1\)") == [("radius", "_binomials")]


@pytest.mark.parametrize(
    "pattern, home",
    [
        (r"math\.comb\(N - 1", ("threshold", "_rows")),  # the row integers (N, alpha, T, lead)
        (r"\(d & -d\)", ("threshold", "_half_levels")),  # the spectrum half-walk and its trailing zeros
        (r"default_rng\(", ("families", "_substream_rows")),  # one seeded row per substream key
    ],
    ids=["row-walk", "half-walk", "substream-rows"],
)
def test_one_construction_for_each_row(pattern, home):
    text = "".join(path.read_text() for path in SOURCES)
    assert (len(re.findall(pattern, text)), functions_matching(pattern)) == (1, [home])


def test_no_blas_call():
    # OpenBLAS threads keep spinning after a call and raise the CPU time of a run; the oracle is the one product
    assert functions_matching(r"\s@=?\s|\bdot\(|matmul|einsum") == [("cube", "walsh_transform_naive")]


def test_no_fraction_internals():
    # symmetric spectra hold integer pairs: nothing builds a Fraction by hand or writes its private slots
    found = [path.name for path in SOURCES if re.search(r"_numerator|_denominator|__new__\(Fraction\)", path.read_text())]
    assert found == []


def test_one_parseval_cut():
    # the threshold rows and boolean_radius_symmetric cut their rows by one helper
    readers = [
        (path.stem, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and any(isinstance(n, ast.Name) and n.id == "CUT_NATS" for n in ast.walk(node))
    ]
    assert readers == [("radius", "_parseval_cut")]


def test_radius_owns_every_root():
    # one solver finds every root: no other module bisects, solves the reduced equation or pads rows into blocks
    owned = {"_solve_reduced", "_bisect", "_block_width", "SCAN_BLOCK_DOUBLES"}
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and owned & {alias.name for alias in node.names}:
                found.append((path.stem, "import"))
            elif isinstance(node, ast.FunctionDef) and owned & {
                n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
            }:
                found.append((path.stem, node.name))
    assert found and {module for module, _ in found} == {"radius"}, found


def imported_modules(source: str) -> set:
    """The top-level names of the modules that ``source`` imports, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_the_import_collector_sees_every_kind_of_import():
    src = "import a.b, os\nfrom c.d import e\nfrom . import f\nfrom .g import h\ndef k():\n    import m\n"
    assert imported_modules(src) == {"a", "os", "c", "m"}


def test_declared_dependencies_are_what_the_library_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    declared = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in declared}
    imported = set().union(*(imported_modules(path.read_text()) for path in SOURCES))
    assert imported - set(sys.stdlib_module_names) == names
