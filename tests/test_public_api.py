"""The package's public names all resolve and are all read, and its modules
import only what they use."""
import ast
import pathlib

import levyminmax

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public names that no module, no benchmark file and no acceptance criterion
# reads, each with the reason it stays
KEPT = {
    "clarke.sample_differential":
        "the sampled Clarke Jacobian at a point, the paper's differential",
    "clarke.mean_value_residual":
        "the mean-value inclusion of the Clarke Jacobians (Lebourg), "
        "certified exactly on affine envelopes from the segment's pieces",
    "courrege.CourregeDecomposition.levy_measure":
        "the Levy measure of a row's Courrege normal form",
    "cubes.uncovered_volume": "the coverage identity of the Whitney cover",
    "levy.tv_distance":
        "the distance the paper states spatial regularity of measures in",
    "special.taylor_cutoff":
        "the paper's cutoff-compensated Taylor data of smooth functions",
    "special.validate_s_member": "membership in the admissible cutoff class",
    "grid.RegularityClass.derivative_order":
        "the order m of the paper's class C^{m,s}",
    "grid.RegularityClass.holder_exponent":
        "the exponent s of the paper's class C^{m,s}",
    "cubes.base_family": "the kept-cube table by generation, a test reference",
    "cubes.WhitneyCube.contains":
        "one cube's closed box, the tests' reference for the cover",
    "cubes.WhitneyCube.support_contains":
        "one cube's inflated support, the tests' reference for the bump",
    "cubes.WhitneyCube.weight":
        "one cube's bump, the tests' reference for the batch weights",
    "operators.monge_ampere": "the reference Monge-Ampere operator",
    "courrege.a_of": "one row's cutoff diffusion for any admissible cutoff, "
                     "the per-row reference of the batched normal forms",
    "courrege.b_of": "one row's cutoff drift for any admissible cutoff, "
                     "the per-row reference of the batched normal forms",
    "courrege.c_of": "one row's zero-order coefficient, "
                     "the per-row reference of the batched normal forms",
    "special.SClassFn.shrunk_unit":
        "the unit member of the shrinking pair; the batched normal forms "
        "evaluate it at each row's scales through reverse_ramp",
}


def test_every_exported_name_resolves():
    missing = [name for name in levyminmax.__all__
               if not hasattr(levyminmax, name)]
    assert missing == []


def test_star_import_works():
    namespace = {}
    exec("from levyminmax import *", namespace)
    assert set(levyminmax.__all__) <= set(namespace)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export, so only the other modules are checked
    package = pathlib.Path(levyminmax.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{stmt.lineno} {bound}")
    assert unused == []


def test_frozen_objects_are_written_only_in_post_init():
    # object.__setattr__ on a frozen dataclass is how __post_init__ stores
    # its normalized fields; anywhere else it mutates a finished value
    package = pathlib.Path(levyminmax.__file__).parent
    writes = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node)
                   for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef)
                   and func.name == "__post_init__"
                   for node in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"
                    and id(node) not in allowed):
                writes.append(f"{path.name}:{node.lineno}")
    assert writes == []


def _public_definitions(package: pathlib.Path) -> list:
    """(key, name) of each public top-level function and class of the
    package's modules other than __init__, and of each public method of
    those classes."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            key = f"{path.stem}.{node.name}"
            out.append((key, node.name))
            if isinstance(node, ast.ClassDef):
                out += [(f"{key}.{sub.name}", sub.name) for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")]
    return out


def test_every_public_name_is_read_or_kept():
    # a name is read where it appears as a Name or an Attribute in the
    # package, the benchmark or the acceptance criteria; definitions and
    # the re-exports of __init__ are not reads
    package = ROOT / "src" / "levyminmax"
    readers = (sorted(package.glob("*.py"))
               + sorted((ROOT / "perfbench").rglob("*.py"))
               + [ROOT / "tests" / "test_acceptance.py"])
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {key for key, name in _public_definitions(package)
              if name not in read}
    assert sorted(unread - KEPT.keys()) == []
    # a kept name that has gained a reader leaves the list
    assert sorted(KEPT.keys() - unread) == []
