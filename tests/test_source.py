"""The package's own source: library invariants raise InvariantViolation,
so none may hang on an assert statement, which python -O strips; no
library code asks which family a ring belongs to, and no family redefines
what the rings share or defines more than its arithmetic; the walk step
and the command output each have one home; subrings checks no row of its
own twice; the sibling rule reads only ring facts and has one reader, the
family step the walk and the census share; one place decides the kernel
bit, and the census reads carried exponent points; shape questions are
shifts of point masks; each ring picks its m^2
kernel and its closure parts once, and closure runs one rounds loop on
every row format, testing none; one row kernel per ring picks the row
format, and the walk builds every subring from the kernel's rows,
converting none between tuples and ints; the library has one Howell
pass, and each row format one insertion loop, which closure's kept
tables and canonicalize share; only verify uses the element kernel, and
each valuation law is one pass over its rows; no private helper
outlives its last caller, and no public function or method goes
unreferenced; and every name the benchmark's tracer wraps exists where it
looks."""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import truncring

SRC = Path(truncring.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


FAMILY_CLASSES = {"FieldPolyCtx", "ZpNPolyCtx"}


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_package_asks_no_ring_its_family():
    # a ring context carries its facts (base, caps_log, caps, p_image,
    # domain) as data, and library code reads those instead of the class
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and any(_names(arg) & FAMILY_CLASSES for arg in node.args[1:])
    ]
    assert found == []


def _class_methods(tree, name):
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)
    return {n.name for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_ring_families_share_one_entry_rule():
    # the shared context reads the ring's facts (p_image, base), so no
    # family may redefine one of its methods and split a rule by class
    tree = ast.parse((SRC / "rings.py").read_text())
    shared = _class_methods(tree, "_TruncPolyCtx")
    assert {"_check", "is_unit"} <= shared
    assert {name: shared & _class_methods(tree, name) for name in FAMILY_CLASSES} == {
        name: set() for name in FAMILY_CLASSES
    }


FAMILY_METHODS = {"__init__", "_sibling", "add", "neg", "sub", "mul", "scalar_mul", "nu", "__repr__"}


def test_ring_families_define_only_their_arithmetic():
    # each family validates its parameters, sets its facts through the
    # shared _set_facts and keeps its table or modular arithmetic; the
    # string syntax and every other rule read the facts on the shared class
    tree = ast.parse((SRC / "rings.py").read_text())
    assert {name: _class_methods(tree, name) for name in FAMILY_CLASSES} == {
        name: FAMILY_METHODS for name in FAMILY_CLASSES
    }


def _callers(module, name):
    """The module-level functions and classes of a package module that call
    name."""
    tree = ast.parse((SRC / module).read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and any(isinstance(c, ast.Call) and name in _names(c.func) for c in ast.walk(node))
    }


def _referrers(module, name):
    """The module-level functions and classes of a package module that
    refer to name, calling it or handing it on, their own definition
    aside."""
    tree = ast.parse((SRC / module).read_text())
    return {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name != name and name in _names(node)
    }


def test_one_walk_step():
    # the walk and the enumeration's top write a family's extensions down
    # through _step, and every lift family is built through _built_lifts,
    # which checks its size, so nothing makes families its own way; the
    # walk is the one caller of the family step, and the census and the
    # enumeration take its pairs from the walk
    assert _callers("subrings.py", "_family_extensions") == {"_top_families"}
    assert _callers("subrings.py", "_step") == {"_top_families", "_enumerate_minimal_ext"}
    assert _callers("subrings.py", "lift_isomorphic") == {"_built_lifts"}
    assert _callers("subrings.py", "_top_families") == {"_enumerate_minimal_ext", "_census_walk"}


def _function(module, name):
    tree = ast.parse((SRC / module).read_text())
    return next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)


def test_one_place_decides_the_kernel_bit():
    # the valuation test and the m^2 pass decide the kernel bit in one
    # place; the census reads the point masks the walk carries through the
    # memo, and nothing but the memo reads points off rows
    assert _callers("subrings.py", "_kernel_is_a_product") == {"restricted_extension"}
    assert _referrers("subrings.py", "_points_of_rows") == {"_point_mask"}
    walk = _names(_function("subrings.py", "_census_walk"))
    assert "_point_mask" in walk
    assert not walk & {"_points_of_rows", "basis", "_rows", "nu"}


def test_shape_questions_are_answered_by_masks():
    # every shape question is a shift of masks in the domain's layout: the
    # set-based pairwise sums live on in the tests only, as the oracle, and
    # a point is checked against its domain where it becomes a mask
    # (_PointLayout.mask_of), not once per sum
    tree = ast.parse((SRC / "shapes.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_sums" not in defined | _names(tree)
    assert _callers("shapes.py", "contains") == {"_PointLayout", "GridDomain"}


def test_one_family_step_decides_sharing():
    # the sibling rule is read in one place, and the census counts the
    # pairs that family step returns without extending a member or building
    # a lift itself; the lifts it counts unbuilt keep lift_isomorphic's
    # complement check
    assert _callers("subrings.py", "_siblings_share_square") == {"_family_extensions"}
    assert not _names(_function("subrings.py", "_census_walk")) & {
        "restricted_extension",
        "_siblings_share_square",
        "_family_extensions",
        "_step",
        "_preimage",
        "lift_isomorphic",
        "_built_lifts",
    }
    assert _callers("subrings.py", "_checked_complement") == {"lift_isomorphic", "_census_walk"}


# the parts of closure's rounds loop that depend on the row format, which
# each ring's kernel holds
CLOSURE_PARTS = {"start", "insert", "finish", "products"}


def test_each_ring_picks_its_square_kernel_once():
    # _RowKernel picks a ring's m^2 products and its closure parts when it
    # is built, so ideal_data and closure have one path each and ask no
    # ring for its row format; the XOR products of m^2 and of closure's
    # rounds on packed F_2 rows are both formed there, closure alone runs
    # the rounds, and canonicalize runs the echelon pass's two phases
    assert "_packs" not in _names(_function("subrings.py", "ideal_data"))
    assert _callers("subrings.py", "_xor_mul") == {"_RowKernel"}
    kernel_users = _referrers("subrings.py", "_row_kernel")
    parts = {name: _names(_definition("subrings.py", name)) & CLOSURE_PARTS for name in kernel_users}
    assert {name: found for name, found in parts.items() if found} == {
        "closure": CLOSURE_PARTS,
        "canonicalize": {"insert", "finish"},
    }


def _definition(module, name):
    tree = ast.parse((SRC / module).read_text())
    return next(n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name)


# the code that held a branch on the row format before the row kernel took
# every format-dependent job (restricted_extension took the place of
# _has_top_pivot, which is gone)
ONE_PATH = (
    "restricted_extension",
    "Subring",
    "project_subring",
    "_points_of_rows",
    "IdealData",
    "_preimage",
    "_lift_complement",
    "lift_isomorphic",
    "ideal_data",
    "_step",
)


def test_one_row_kernel_picks_the_row_format():
    # the row format is picked in one place, the row kernel's constructor,
    # and the code that once branched on it neither asks for it nor reads
    # a packed row's pivot off its bit length
    assert _referrers("subrings.py", "_packs") == {"_RowKernel"}
    kernel = _definition("subrings.py", "_RowKernel")
    assert [f.name for f in kernel.body if isinstance(f, ast.FunctionDef) and "_packs" in _names(f)] == ["__init__"]
    found = {name: _names(_definition("subrings.py", name)) & {"_packs", "bit_length"} for name in ONE_PATH}
    assert found == {name: set() for name in ONE_PATH}


def _constructs(node):
    """The calls in node that build a subring: Subring(...), cls(...) and
    Subring._from_rows(...) or cls._from_rows(...), by kind."""
    kinds = Counter()
    for c in ast.walk(node):
        if not isinstance(c, ast.Call):
            continue
        f = c.func
        if isinstance(f, ast.Name) and f.id in {"Subring", "cls"}:
            kinds["constructor"] += 1
        elif isinstance(f, ast.Attribute) and f.attr == "_from_rows":
            kinds["_from_rows"] += 1
    return kinds


def test_the_walk_builds_subrings_from_kernel_rows():
    # every subring the walk, closure and project_subring make is built by
    # _from_rows from rows the ring's row kernel made (closure's from the
    # rows its kernel's finishing phase returns), never re-packed or
    # re-tupled by the constructor; only the subspace scan, which writes
    # tuple rows itself, calls the constructor
    tree = ast.parse((SRC / "subrings.py").read_text())
    made = {
        node.name: _constructs(node)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _constructs(node)
    }
    assert {name for name, kinds in made.items() if kinds["constructor"]} == {"_enumerate_subspace_scan"}
    assert {name for name, kinds in made.items() if kinds["_from_rows"]} == {
        "Subring",
        "closure",
        "project_subring",
        "_preimage",
        "lift_isomorphic",
    }
    prime = next(f for f in _definition("subrings.py", "Subring").body if getattr(f, "name", "") == "prime_ring")
    assert _constructs(prime) == {"_from_rows": 1}


# what a quotient step runs, from a family's members to their extensions
# and lift families
WALK_PATH = (
    "_step",
    "_family_extensions",
    "_built_lifts",
    "_checked_complement",
    "restricted_extension",
    "_preimage",
    "ideal_data",
    "_kernel_is_a_product",
    "_extension",
    "lift_isomorphic",
    "_lift_complement",
    "_howell_lift_bases",
)


def test_the_walk_converts_no_rows():
    # rows stay packed along the quotient chain: a preimage is a shift and
    # a top pivot a compare, so the tuple preimage and projection, with
    # _lift_row and _has_top_pivot, are gone; the kernel packs only the
    # generators entering closure and the rows canonicalize is given,
    # reducing them into the caps, and no step of the walk packs, unpacks
    # or scans a tuple row for its pivot
    tree = ast.parse((SRC / "subrings.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    gone = {"_has_top_pivot", "_lift_row"}
    assert not defined & gone
    assert not [p.name for p in sorted(SRC.rglob("*.py")) if gone & _names(ast.parse(p.read_text()))]
    kernel = _definition("subrings.py", "_RowKernel")
    assert "_reduce" not in _names(kernel)
    assert "_packed_in" not in defined
    tuple_work = {"_pack", "_unpack", "unpack", "_pivot", "_lead", "basis"}
    assert _names(_function("subrings.py", "closure")) & (tuple_work | {"pack"}) == {"pack"}
    found = {name: _names(_definition("subrings.py", name)) & tuple_work for name in WALK_PATH}
    assert found == {name: set() for name in WALK_PATH}


RING_FACTS = {"n", "base", "caps_log", "caps", "p_image", "domain"}


def test_sibling_rule_reads_only_ring_facts():
    # whether a lift family shares m^2 is a rule about its ring: the one
    # argument is a ring context, and the rule reads its facts and nothing
    # else, computing no element and calling nothing
    tree = ast.parse((SRC / "subrings.py").read_text())
    rule = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_siblings_share_square")
    assert [a.arg for a in rule.args.args] == ["ctx"]
    assert not (rule.args.vararg or rule.args.kwarg or rule.args.kwonlyargs)
    read = {
        n.attr
        for n in ast.walk(rule)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "ctx"
    }
    assert read and read <= RING_FACTS
    assert not [n for n in ast.walk(rule) if isinstance(n, ast.Call)]


def test_one_howell_pass():
    # the library has one Howell pass: the m^2 kernel runs it on its
    # Kronecker products and the packed lift bases on a family's tagged
    # rows; the ring's kernel hands its two phases to closure, which runs
    # them on one kept table, and to canonicalize; the tuple pass lives on
    # in the tests only, as their oracle
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))]
    assert trees and not [t for t in trees if "_howell" in _names(t)]
    assert not [
        node.name
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == "_howell"
    ]
    assert _callers("subrings.py", "_packed_howell") == {"_RowKernel", "_howell_lift_bases"}
    for phase in ("_howell_insert", "_howell_finish"):
        assert _referrers("subrings.py", phase) == {"_packed_howell", "_RowKernel"}


def test_closure_asks_no_ring_its_row_format():
    # the ring's kernel picks closure's parts once: closure itself tests no
    # row format or base, and runs one rounds loop, on every row format,
    # with the parts of the ring's kernel; the per-format loops are gone,
    # and the rounds on tuple rows live on in the tests, as an oracle
    closure = _function("subrings.py", "closure")
    names = _names(closure)
    assert not names & {"_packs", "base", "p_image", "coeff"}
    assert "_row_kernel" in names
    assert len([n for n in ast.walk(closure) if isinstance(n, (ast.While, ast.For))]) == 1
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]
    defined = {n.name for t in trees for n in ast.walk(t) if isinstance(n, ast.FunctionDef)}
    assert not defined & {"_closed", "_ring_mul_close", "close"}


def test_each_insertion_loop_exists_once():
    # a row is inserted by reading its pivot, off its bit length where it is
    # packed and by _lead where it is a tuple, in one loop per row format
    # that the echelon pass and closure share: _xor_insert on F_2 rows,
    # _howell_insert in the Howell layout and _rref_insert on tuple rows
    found = Counter(
        f"{path.name}:{node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
        for loop in ast.walk(node)
        if isinstance(loop, ast.While) and _names(loop) & {"bit_length", "_lead"}
    )
    assert set(found) == {"subrings.py:_xor_insert", "subrings.py:_howell_insert", "subrings.py:_rref_insert"}
    for echelon, kind in (("_xor_echelon", "_xor"), ("_rref", "_rref")):
        for phase in (f"{kind}_insert", f"{kind}_finish"):
            assert _referrers("subrings.py", phase) == {echelon, "_RowKernel"}


def test_canonicalize_asks_the_rings_row_kernel():
    # canonicalize checks the rows it is given and runs the two phases of
    # the ring's echelon pass through its row kernel, with no branch of its
    # own on the ring's coefficients
    names = _names(_function("subrings.py", "canonicalize"))
    assert {"_check", "_row_kernel", "pack", "insert", "finish", "unpack"} <= names
    assert not names & {"p_image", "base", "coeff", "_rref", "_packed_howell", "_layout"}


def test_each_valuation_law_is_one_pass():
    # each valuation scan decides its rows and writes its report from the
    # rows' own results: the loops over the pairs live on in the tests as
    # the oracle, and the element kernel keeps no pairwise sum or difference
    gone = {"_scan", "_strict_pairs", "_nonarchimedean_pairs", "_monomial_pairs"}
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]
    assert not gone & {n.name for t in trees for n in ast.walk(t) if isinstance(n, ast.FunctionDef)}
    assert not [p.name for p in sorted(SRC.rglob("*.py")) if gone & _names(ast.parse(p.read_text()))]
    kernel = _definition("subrings.py", "_ElementKernel")
    slots = next(n.value for n in kernel.body if isinstance(n, ast.Assign) and n.targets[0].id == "__slots__")
    slots = set(ast.literal_eval(slots))
    assert {"add_row", "sub_row", "mul", "mul_row"} <= slots
    assert not {"add", "sub", "fix"} & (slots | _names(kernel))


def test_only_verify_uses_the_element_kernel():
    # closure forms its products in the ring's row layout, so the packed
    # element kernel serves verify's pair scans alone
    found = {path.name: _callers(path.name, "_element_kernel") for path in sorted(SRC.glob("*.py"))}
    assert {name for name, callers in found.items() if callers} == {"verify.py"}


def test_one_output_point():
    # each command returns its text and exit code, and main writes it
    assert _callers("cli.py", "_emit") == {"main"}


def test_library_rows_are_echeloned_unchecked():
    # canonicalize checks rows where they enter; rows the library already
    # holds are echeloned by the passes it calls, never checked again
    tree = ast.parse((SRC / "subrings.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "canonicalize" in _names(node.func)
    ]
    assert calls == []


def _private_defs(tree):
    """The module-level and class-level functions named _name, dunders
    excepted."""
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return [
        node
        for body in scopes
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    ]


def _names_used(node):
    return Counter(n.id for n in ast.walk(node) if isinstance(n, ast.Name)) + Counter(
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    )


def test_package_has_no_dead_private_helpers():
    # a helper whose last caller went away should go with it; a reference
    # inside the helper's own body does not keep it alive
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))]
    assert trees
    uses = sum(map(_names_used, trees), Counter())
    dead = [
        node.name
        for tree in trees
        for node in _private_defs(tree)
        if uses[node.name] == _names_used(node)[node.name]
    ]
    assert dead == []


ROOT = Path(__file__).resolve().parents[1]


def _public_defs(tree):
    """The module-level and class-level functions not named _name."""
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    return [
        node
        for body in scopes
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def test_package_has_no_dead_public_api():
    # a public function or method that nothing refers to, in the package or
    # in what users run and read, is a second way to do a job or no way at
    # all; the package's own re-exports and the tests do not keep it alive
    paths = sorted(SRC.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    assert trees
    uses = sum((_names_used(t) for path, t in trees.items() if path.name != "__init__.py"), Counter())
    texts = [*sorted((ROOT / "demos").glob("*.py")), ROOT / "README.md", ROOT / "perfbench" / "tracer.py"]
    words = set(re.findall(r"\w+", "\n".join(path.read_text() for path in texts)))
    dead = [
        f"{path.name}:{node.name}"
        for path, tree in trees.items()
        for node in _public_defs(tree)
        if uses[node.name] == _names_used(node)[node.name] and node.name not in words
    ]
    assert dead == []


def _benchmark_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_names_resolve():
    # the benchmark's per-layer trace wraps these names; one that a change
    # renames or deletes would break `perfbench/run.py --trace 1`
    tracer = _benchmark_tracer()
    missing = []
    for _, modname, owner, attr, _ in tracer.TARGETS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{modname}")
        if owner is None:
            found = callable(getattr(module, attr, None))
        else:
            found = attr in vars(getattr(module, owner, object))
        if not found:
            missing.append(f"{modname}.{owner or ''}.{attr}")
    assert tracer.TARGETS and missing == []
