"""Source-level rules for the package."""

from __future__ import annotations

import ast
from collections import Counter, defaultdict
from pathlib import Path

import xorsat_reduce

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xorsat_reduce"


def package_sources() -> list[Path]:
    sources = sorted(PACKAGE.glob("*.py"))
    if not sources:
        raise AssertionError(f"no sources found under {PACKAGE}")
    return sources


def test_no_assert_statements():
    """Correctness checks raise explicitly: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in package_sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_recursion_limit_changes():
    """Deep inputs are handled by iteration, not by raising the interpreter's recursion limit."""
    found = [
        f"{path.name}:{lineno}"
        for path in package_sources()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if "setrecursionlimit" in line
    ]
    assert found == []


def test_cli_reads_input_files_only_through_the_guarded_reader():
    """Every command reads its input through `_read_input`, which maps read failures to exit 2."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    readers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "read_text"
    }
    assert readers == {"_read_input"}


def test_one_reader_splits_input_text_into_lines():
    """Instance and graph files share one header-and-line loop, `instances.read_records`."""
    found = [
        f"{path.name} {getattr(statement, 'name', '<module>')}"
        for path in package_sources()
        for statement in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "splitlines"
    ]
    assert found == ["instances.py read_records"]


def test_only_the_degree_repair_rewinds_a_generator():
    """Only `instances._repair_degrees` reaches a generator's bit generator, to read or set its state.

    It rewinds the caller's generator after a chunk of draws, and its
    stream is the one the tests pin against the scalar draws.
    """
    found = {
        f"{path.name} {getattr(statement, 'name', '<module>')}"
        for path in package_sources()
        for statement in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "bit_generator"
        or isinstance(node, ast.Constant) and node.value == "bit_generator"
    }
    assert found == {"instances.py _repair_degrees"}


def test_only_the_walk_compiles_checks():
    """`_walk` is the one reader of `_compiled_checks`, so the backtracking tree has one walk loop.

    Counting cuts per clause, a node budget and a leaf predicate then each
    go into that loop, not into a second walk.
    """
    found = {
        f"{path.name} {getattr(statement, 'name', '<module>')}"
        for path in package_sources()
        for statement in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Name) and node.id == "_compiled_checks" and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute) and node.attr == "_compiled_checks"
    }
    assert found == {"solvers.py _walk"}


def test_packed_bits_are_unpacked_in_two_places():
    """`np.unpackbits` runs only in `gf2._unpack`, for packed rows, and in `reduction.unpack_verdicts`,
    for the scan's verdict words; every other reader works on the packed form."""
    found = {
        f"{path.name} {getattr(statement, 'name', '<module>')}"
        for path in package_sources()
        for statement in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Attribute) and node.attr == "unpackbits"
    }
    assert found == {"gf2.py _unpack", "reduction.py unpack_verdicts"}


def test_no_blas_backed_numpy_calls():
    """No call wakes OpenBLAS's thread pool, whose workers spin on another core after the call returns.

    The `@` products in the package are on int64 arrays, which numpy
    computes without BLAS.
    """
    blas_backed = {"dot", "vdot", "inner", "tensordot", "linalg"}
    found = [
        f"{path.name}:{node.lineno} np.{node.attr}"
        for path in package_sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in blas_backed
        and isinstance(node.value, ast.Name) and node.value.id == "np"
    ]
    assert found == []


def test_no_complex_dtypes():
    """One Grover simulator: both searches sample the closed form; the dense statevector is the tests' reference."""
    complex_dtypes = {"complex64", "complex128", "complex_", "csingle", "cdouble", "clongdouble"}
    found = [
        f"{path.name}:{node.lineno} np.{node.attr}"
        for path in package_sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in complex_dtypes
        and isinstance(node.value, ast.Name) and node.value.id == "np"
    ]
    assert found == []


def test_every_exported_name_resolves_once():
    """Each name in `__all__` is bound on the package, and none is listed twice."""
    missing = [name for name in xorsat_reduce.__all__ if not hasattr(xorsat_reduce, name)]
    repeated = sorted(name for name, count in Counter(xorsat_reduce.__all__).items() if count > 1)
    assert (missing, repeated) == ([], [])


# The dense surface of `gf2`: uint8-matrix entry points and the helpers that convert to and from them.
DENSE_GF2_NAMES = {"row_reduce", "matvec", "kernel_basis", "solve_particular", "inconsistency_witness",
                   "inverse", "as_bin_matrix", "as_bin_vec", "_pack", "_eliminate_arrays"}


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or class's, or an assignment's plain targets."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [target.id for target in statement.targets if isinstance(target, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def test_every_exported_name_is_read():
    """The package keeps what it runs: each public module-level name in `src/` is read by code that runs.

    Code that runs is every file in `bench/`, the package's module-level
    statements that define nothing (the CLI's `main` call among them), and,
    to a fixed point, each module-level definition that such code reads; a
    name read only inside definitions nothing runs is unread too. A read is
    a load of a name that its file defines or imports from the package,
    where the enclosing definition does not bind that name itself, or an
    attribute access by that name. References and named inputs that only
    the tests read live in `tests/conftest.py`. The dense `gf2` names are
    the one exception: `bench/spans.py` binds them by string.
    """
    bench = PACKAGE.parents[1] / "bench"
    public = []  # "module.name" of each public module-level definition
    reads = []  # (the names defined by the statement holding the read, empty where it always runs; name read)
    for path in package_sources() + sorted(bench.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_package = path.parent == PACKAGE
        defined = {name for statement in tree.body for name in defined_names(statement)} if in_package else set()
        public += [f"{path.stem}.{name}" for name in sorted(defined) if not name.startswith("_")
                   and not (path.name == "gf2.py" and name in DENSE_GF2_NAMES)]
        known = defined | {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("xorsat_reduce"))
            for alias in node.names
        }
        for statement in tree.body:
            owners = set(defined_names(statement)) if in_package else set()
            bound = set()
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Store)}
                bound |= {node.arg for node in ast.walk(statement) if isinstance(node, ast.arg)}
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in known - bound:
                        reads.append((owners, node.id))
                elif isinstance(node, ast.Attribute):
                    reads.append((owners, node.attr))
    live: set[str] = set()
    while True:
        grown = live | {name for owners, name in reads if not owners or owners & live}
        if grown == live:
            break
        live = grown
    assert [name for name in public if name.split(".")[1] not in live] == []


def test_only_gf2_reads_its_dense_names():
    """Every other stage runs on packed rows; the dense `gf2` functions are read only by tests and `bench/`."""
    found = []
    for path in package_sources():
        if path.name == "gf2.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name in DENSE_GF2_NAMES]
    assert found == []


def test_only_the_instance_module_walks_clause_objects():
    """Every stage reads the clause table; `Clause`/`Literal` are the constructor's input and a view."""
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in package_sources()
        if path.name != "instances.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in {"clauses", "literals"}
    ]
    assert found == []


def test_seeds_become_generators_only_through_default_rng():
    """`np.random.default_rng` returns a Generator it is given unchanged, so no second seed path is needed."""
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in package_sources()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and (
            ast.unparse(node.func).endswith("random.Generator")
            or ast.unparse(node.func) == "isinstance" and "Generator" in ast.unparse(node.args[-1])
        )
    ]
    assert found == []


def test_every_private_module_level_name_is_read():
    """A private helper goes with its last reader: each is read somewhere outside its own definition.

    A read is a load of the name in its module, of `module._name`, or of
    the name bound by `from .module import _name`.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in package_sources()}
    reads = defaultdict(list)  # (module, name) -> its loads there, or the loads of module.name
    bound = defaultdict(list)  # (module, name) -> (importing module, the name it is bound to there)
    for reader, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[reader, node.id].append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads[node.value.id, node.attr].append(node)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound[node.module, alias.name].append((reader, alias.asname or alias.name))
    definitions = [
        (module, name, statement)
        for module, tree in trees.items()
        for statement in tree.body
        for name in defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
    ]
    orphans = []
    for module, name, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        loads = reads[module, name] + [node for key in bound[module, name] for node in reads[key]]
        if all(id(node) in inside for node in loads):
            orphans.append(f"{module}.py:{definition.lineno} {name}")
    assert definitions and orphans == []
