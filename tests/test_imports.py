"""Source hygiene: every module-level import in the package is used, every private helper is called,
JSON text and graph files each have one writer, a rational bar becomes an integer cut in one place,
heaviness and budget errors each have one home, each input rule is raised from one home, rational text
is read where it enters, `cli` holds no table of construction kinds, the annealer has one way in, `hfl
solve` has one decider, `hfl` reads a graph input and refuses a clash with --out in one place each, no
module reads the environment, the result types carry each value once, no public function takes an
enumeration cap, and the search's failed-state key is read off the heavy family, never off a weight."""

import ast
import dataclasses
from pathlib import Path

import heavyfactors

PACKAGE = Path(heavyfactors.__file__).parent


def imported_names(tree):
    """(bound name, line) for each module-level import, `from __future__` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_level_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def test_every_private_helper_has_a_caller():
    """Each module-level `_name` def or class is read somewhere in the package outside its own body."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}
    assert trees
    read_in = [
        (top, {node.id if isinstance(node, ast.Name) else node.attr
               for node in ast.walk(top) if isinstance(node, (ast.Name, ast.Attribute))})
        for tree in trees.values() for top in tree.body
    ]
    orphans = [
        f"{module}:{top.lineno}: {top.name}"
        for module, tree in trees.items() for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name.startswith("_") and not top.name.startswith("__")
        and not any(top.name in names for other, names in read_in if other is not top)
    ]
    assert orphans == []


def test_package_exports_exactly_what_it_imports():
    """`__all__` lists each name `__init__.py` imports from its modules, and each resolves."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {name for name, _ in imported_names(tree)}
    assert imported == set(heavyfactors.__all__)
    assert len(heavyfactors.__all__) == len(imported)
    assert all(hasattr(heavyfactors, name) for name in heavyfactors.__all__)


def package_calls():
    """(`module.top-level name`, call node) for every call in the package's modules."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    return [(f"{module}.{getattr(top, 'name', '<module>')}", node)
            for module, tree in trees.items() for top in tree.body
            for node in ast.walk(top) if isinstance(node, ast.Call)]


def opens_for_writing(call):
    """True for `open(...)` with a mode that writes (or one not spelled as a literal), and for Path writers."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in ("write_text", "write_bytes")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def test_json_text_and_graph_files_are_written_in_one_place_each():
    """`json.dump(s)` runs only in `core.dumps_canonical`; graph files are opened for writing only in `core.save_graph`.

    The only other writer, `cli._write_text`, never sees a graph document:
    no package code reads `graph_to_json`, so a graph's text comes from
    `save_graph` alone.
    """
    calls = package_calls()
    dumps = [owner for owner, call in calls
             if isinstance(call.func, ast.Attribute) and call.func.attr in ("dump", "dumps")
             and isinstance(call.func.value, ast.Name) and call.func.value.id == "json"]
    assert dumps == ["core.dumps_canonical"]
    assert sorted(owner for owner, call in calls if opens_for_writing(call)) == ["cli._write_text", "core.save_graph"]
    nodes = [node for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))]
    assert not [node for node in nodes if isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert not [node for node in nodes if isinstance(node, ast.Name) and node.id == "graph_to_json"]


def callers(name):
    """The owners of the package's calls to `name`, spelled as a plain name or as an attribute."""
    return sorted(owner for owner, call in package_calls()
                  if name == (call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)))


def test_heaviness_and_budget_errors_each_have_one_home():
    """`admits` is called only by `core.is_heavy` and `core.is_overweight_edge`; only `schemes` raises BudgetExceededError.

    Every block check goes through `is_heavy`, and the split and retry budgets live in `schemes`.
    """
    assert callers("admits") == ["core.is_heavy", "core.is_overweight_edge"]
    assert {owner.split(".")[0] for owner in callers("BudgetExceededError")} == {"schemes"}


def test_every_bar_is_cut_to_an_integer_in_one_place():
    """`core._least_numerator` turns each rational bar into an integer cut over its reader's denominator.

    No module keeps a second spelling of the cut, so the tie rule on integer
    sums lives there and the one on Fraction weights in `FactorParams.admits`.
    """
    assert callers("_least_numerator") == [
        "constructions._sample_grid_floor", "core.WeightedCompleteGraph", "schemes.bipartite_threshold_matching",
        "schemes.scheme2_partition", "schemes.scheme2_partition", "solver._heavy_family",
    ]
    names = {
        node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
        else node.name if isinstance(node, (ast.FunctionDef, ast.alias)) else None
        for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
    }
    assert names & {"least_numerator", "_ceil_numerator"} == set()


def test_the_failed_state_key_reads_the_heavy_family_only():
    """`_key_steps` is called only by `solver.find_heavy_factor` and reads no graph, `rows`, `degrees` or `weight`.

    Its twins are those of the heavy family, so the search tree and its node
    count depend on a graph only through which of its r-sets are heavy.
    """
    assert callers("_key_steps") == ["solver.find_heavy_factor"]
    tree = ast.parse((PACKAGE / "solver.py").read_text())
    body = next(top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == "_key_steps")
    read = {node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else node.arg
            for node in ast.walk(body) if isinstance(node, (ast.Name, ast.Attribute, ast.arg))}
    assert "heavy" in read
    assert read & {"graph", "rows", "degrees", "weight"} == set()


def test_schemes_check_blocks_by_the_one_predicate():
    """No function in `schemes` reads a single edge weight, so each of its block checks is an `is_heavy` call."""
    assert [owner for owner in callers("weight") if owner.startswith("schemes.")] == []


def test_solve_has_one_decider_and_one_node_count_writer():
    """`cli` calls neither the partition oracle nor `is_heavy`; two writers hold the `"nodes_explored"` key.

    `hfl solve` writes `SolveCertificate.to_json`, and verify's violations are
    written by `TrialReport.to_json`, so moving the count out of the documents
    edits these two writers only.
    """
    assert [owner for name in ("enumerate_all_factors", "is_heavy") for owner in callers(name)
            if owner.startswith("cli.")] == []
    writers = sorted(f"{path.stem}.{getattr(top, 'name', '<module>')}"
                     for path in sorted(PACKAGE.glob("*.py"))
                     for top in ast.parse(path.read_text(), filename=str(path)).body
                     if any(isinstance(node, ast.Constant) and node.value == "nodes_explored"
                            for node in ast.walk(top)))
    assert writers == ["lab.TrialReport", "solver.SolveCertificate"]


def raise_texts():
    """(`module.top-level name`, literal text of the raised message) for every `raise` in the package."""
    return [(f"{path.stem}.{getattr(top, 'name', '<module>')}",
             "".join(node.value for node in ast.walk(raised) if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)))
            for path in sorted(PACKAGE.glob("*.py"))
            for top in ast.parse(path.read_text(), filename=str(path)).body
            for raised in ast.walk(top) if isinstance(raised, ast.Raise)]


RULE_HOMES = {
    "outside [0, 1]": ["core._unit"],
    "must be nonnegative": ["core._nonnegative"],
    "out of range for n=": ["core._vertex_set"],
    "repeats vertex": ["core._vertex_set"],
    "need at least one vertex": ["core._vertex_count"],
    "need n > r": ["constructions._seed_shape"],
    "needs r >= 3": ["solver.t_r_threshold"],
    "does not divide": ["core._check_block_shape"],
    "overlaps": ["core._disjoint_blocks"],
    "even vertex count": ["matching.perfect_matching"],
    "must be >= 1": ["constructions._grid_denominator"],
    "need r >= 2": ["core._check_block_shape"],
    "need n >= r": ["solver.lemma1_bound"],
    "does not read": ["constructions._checked_descriptor"],
    "must be an integer": ["core._integer"],
    "must be a bool": ["core._flag"],
    "must be an exact rational": ["core._exact"],
    "decimal notation": ["core.parse_rational"],
    "exceeds enumeration cap": ["solver._enumeration_cap"],
}


def test_each_input_rule_is_written_once():
    """Each refusal's text is raised from one home, and only `core._require` constructs a CertificationError.

    Every other site calls the home, so one rule cannot print two messages.
    """
    texts = raise_texts()
    homes = {phrase: sorted(owner for owner, text in texts if phrase in text) for phrase in RULE_HOMES}
    assert homes == RULE_HOMES
    assert callers("CertificationError") == ["core._require"]


def test_rational_text_is_read_where_it_enters():
    """`parse_rational` reads a command-line option, a graph file's weight and, through `core._exact`, any other text.

    A descriptor document's rational fields reach `_exact` unparsed, so text
    there is read once, as everywhere else.
    """
    assert callers("parse_rational") == ["cli._rational", "core._exact", "core.graph_from_json"]


def test_cli_holds_no_table_of_construction_kinds():
    """Which fields each construction kind reads is written once, in `constructions.KINDS`.

    `hfl generate` passes its options straight to `build`, so `cli` names no
    per-kind option table and no kind but the one its `--kind random` spells.
    """
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {name for name, _ in imported_names(tree)}
    assert names & {"GENERATE_OPTIONS", "KIND_PROP2", "KIND_HS", "KIND_COUNTEREXAMPLE"} == set()


def test_the_annealer_has_one_way_in():
    """`adversarial_search` is called only by `cli._cmd_estimate`; the seed record only by it and `lab.scan_report`.

    A scan tabulates seed records, so a second way into the annealer would add a configuration but no bound.
    """
    assert callers("adversarial_search") == ["cli._cmd_estimate"]
    assert callers("evaluate_lower_bounds") == ["lab.adversarial_search", "lab.scan_report"]


def test_cli_reads_its_graph_input_and_checks_its_paths_in_one_place():
    """Only `cli._graph_input` loads a graph; it and `cli._sidecar` alone check a path against --out.

    A new graph command or sidecar file then takes the --out refusal with it.
    """
    assert callers("load_graph") == ["cli._graph_input"]
    assert callers("_refuse_same_file") == ["cli._graph_input", "cli._sidecar"]


def test_no_module_reads_the_environment():
    """A document depends only on the command's arguments and input files, so no setting comes from a variable."""
    environment = {"environ", "environb", "getenv", "putenv"}
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in environment
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in environment for alias in node.names)
    ]
    assert reads == []


# result type -> its public surface: dataclass fields, then the properties and methods its class body defines
RESULT_SURFACES = {
    "StructureReport": ("violations", "anchors", "spare_vertices", "ok"),
    "BipartiteAverageGraph": ("cliques", "vertices", "numerators", "den"),
    "HeavyCollection": ("blocks", "overweight_count", "from_blocks", "size"),
    "CliqueFactor": ("blocks", "from_blocks", "validate"),
    "SolveCertificate": ("params", "strict", "factor", "nodes_explored", "outcome", "to_json"),
    "BoundRecord": ("r", "t", "value", "source", "graph", "certificate", "note", "certified"),
    "ScanCell": ("r", "t", "prop2_value", "conjecture", "upper_bound", "certified"),
    "ConjectureReport": ("n", "cells", "flags"),
}


def test_result_types_carry_each_value_once_and_no_public_function_takes_a_cap():
    """Each result type holds exactly the names above, and no public package function has a `cap` parameter.

    A field or property that copies another, or an enumeration cap that only tests set, then shows here.
    """
    surfaces = {}
    for name in RESULT_SURFACES:
        cls = getattr(heavyfactors, name)
        fields = tuple(f.name for f in dataclasses.fields(cls))
        surfaces[name] = fields + tuple(attr for attr in vars(cls)
                                        if not attr.startswith("_") and attr not in fields)
    assert surfaces == RESULT_SURFACES
    takes_cap = [
        f"{path.stem}.{top.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")
        and "cap" in {arg.arg for arg in top.args.args + top.args.kwonlyargs}
    ]
    assert takes_cap == []
