"""Every top-level import of the package and of its tests is referenced,
every public function of the package has a caller in the package or
reproduces one of the paper's results, every public method and property
of a public class, every field of a public frozen dataclass and every
public module-level constant is read in the package, and every public
function and constant of the reference code in tests/oracle.py is read by
a test."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diffnet"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
ORACLE = ROOT / "tests" / "oracle.py"

# Public functions that no code in the package calls, each with the result of
# the paper it reproduces (the criteria are tests/test_acceptance.py's).
# Per-agent reference code lives in tests/oracle.py.
ANALYSIS_FUNCTIONS = {
    "network.bias_limit": "conventional diffusion's limit, the Perron-weighted "
                          "mix of the two models (criterion 2)",
    "network.perron_vector": "the Perron vector of A that weights that limit (criterion 2)",
    "network.complete_topology": "the complete graph, on which the mean-field chain "
                                 "is exact (criterion 4's absorption check)",
    "network.is_left_stochastic": "A1 + A2 stays left-stochastic (criterion 11)",
    "diffusion.build_mean_error_system": "the mean-error recursion of the modified "
                                         "strategy: stable and unbiased (criterion 3)",
    "diffusion.convergence_rate": "the mean-square convergence rate rho(B)^2",
    "diffusion.rate_lower_bound": "the fastest rate (1 - mu lambda_min(Ru))^2, which "
                                  "a single agent meets",
    "classification.error_bound_Pu": "the bound on the misclassification probabilities "
                                     "P_e,1 and P_e,0",
    "classification.belief_error_oracle": "the belief's random geometric series, "
                                          "the Monte Carlo check of that bound",
    "markov.build_exact_chain": "the exact 2^N absorbing chain of the decisions "
                                "(criterion 4)",
    "markov.count_ratio": "the closed form of the mean-field chain's absorbing "
                          "mass, (n^NK + (N-n)^NK) / (n^K + (N-n)^K)^N (criterion 5)",
    "markov.rate_identity_residual": "rho(Q) = 1 - y^T (b + c) (criterion 5)",
    "markov.verify_K_monotonicity": "rho(Q) falls as the quorum exponent K grows "
                                    "(criteria 5 and 6)",
}


def unused_imports(path: Path) -> list[str]:
    """Names bound by the module's top-level imports that nothing in the
    module references; an import on a line marked `# noqa` is exempt."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    assert unused_imports(path) == []


def uncalled_functions() -> set[str]:
    """`module.function` of each public top-level function in the package
    that no other module imports and its own module names nowhere outside
    its definition."""
    defined, named = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            own = None
            if isinstance(node, ast.FunctionDef):
                own = node.name
                if not own.startswith("_"):
                    defined.add(f"{path.stem}.{own}")
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                named.update(f"{node.module}.{alias.name}" for alias in node.names)
            named.update(f"{path.stem}.{n.id}" for n in ast.walk(node)
                         if isinstance(n, ast.Name) and n.id != own)
    return defined - named


def test_every_library_function_is_called_or_reproduces_a_result():
    uncalled = uncalled_functions()
    # test-only code belongs beside the tests (tests/oracle.py)
    assert sorted(uncalled - ANALYSIS_FUNCTIONS.keys()) == []
    # a listed function that is gone, or now has a caller, leaves the list
    assert sorted(ANALYSIS_FUNCTIONS.keys() - uncalled) == []


def unread_members() -> set[str]:
    """`Class.member` of each public method and property of a public class
    in the package whose name the package reads as an attribute nowhere
    outside the member's own definition."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    reads = Counter(node.attr for tree in trees for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = set()
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("_"):
                    continue
                own = sum(isinstance(node, ast.Attribute) and node.attr == member.name
                          and isinstance(node.ctx, ast.Load) for node in ast.walk(member))
                if reads[member.name] == own:
                    unread.add(f"{cls.name}.{member.name}")
    return unread


def test_every_library_member_is_read_in_the_package():
    # a method or property only tests read belongs beside the tests
    assert sorted(unread_members()) == []


def unread_fields() -> set[str]:
    """`Class.field` of each field of a public frozen dataclass in the
    package whose name the package reads as an attribute nowhere.  Reads in
    the class's own methods count, except in __post_init__, which only
    checks and stores the fields."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    checks = {id(node) for tree in trees for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
              for node in ast.walk(fn)}
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
             and id(node) not in checks}
    return {f"{cls.name}.{field.target.id}" for tree in trees for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            and "dataclass(frozen=True)" in map(ast.unparse, cls.decorator_list)
            for field in cls.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and field.target.id not in reads}


def test_every_frozen_dataclass_field_is_read_in_the_package():
    # a field that is only stored is state nobody uses
    assert sorted(unread_fields()) == []


def unread_constants() -> set[str]:
    """`module.NAME` of each public module-level constant of the package that
    its own module reads nowhere outside its assignment and no other module
    of the package imports."""
    assigned, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            assigned.update(f"{path.stem}.{n.id}" for t in targets for n in ast.walk(t)
                            if isinstance(n, ast.Name) and not n.id.startswith("_"))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update(f"{node.module}.{alias.name}" for alias in node.names)
        read.update(f"{path.stem}.{n.id}" for n in ast.walk(tree)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return assigned - read


def test_every_library_constant_is_read_in_the_package():
    # a tuning constant outlives its code when only its assignment names it
    assert sorted(unread_constants()) == []


def unread_oracle_names() -> set[str]:
    """Each public top-level function and constant of tests/oracle.py that no
    test module imports from it or reads as `oracle.<name>`."""
    public = set()
    for node in ast.parse(ORACLE.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            public.add(node.name)
        if isinstance(node, ast.Assign):
            public.update(t.id for t in node.targets if isinstance(t, ast.Name))
    read = set()
    for path in ORACLE.parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "oracle":
                read.update(alias.name for alias in node.names)
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "oracle"):
                read.add(node.attr)
    return {name for name in public - read if not name.startswith("_")}


def test_every_oracle_name_is_read_by_a_test():
    # reference code no test reads is dead
    assert sorted(unread_oracle_names()) == []
