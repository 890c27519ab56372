"""Package layout: no module of the package imports another's private name,
names its own package or branches on a model class, no function takes a
``side``, and the closed forms of tests/oracles.py call no model method."""
import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "semiwkb"

CLOSED_FORMS = ("closed_form_flow", "closed_form_transport_map", "closed_form_phase",
                "closed_form_kernel")
# importlib and pkgutil calls that look a package or its data up by name
LOOKUPS = {"files", "import_module", "find_spec", "get_data", "read_text", "read_binary",
           "open_text", "open_binary", "path", "contents", "is_resource"}
MODEL_METHODS = {"segment_flow", "shear_pair", "kick", "kick_times", "kick_impulse",
                 "kick_phase_jump", "kinetic_energy", "hess", "grad", "energy"}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_no_module_imports_a_private_name():
    paths, found = sorted(SRC.glob("*.py")), []
    assert len(paths) > 1
    for path in paths:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_no_module_names_its_own_package():
    # relative imports and __package__ keep a copy under another name on its own data
    def own(name):
        return name == SRC.name or name.startswith(f"{SRC.name}.")

    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                found += [f"{path.name}:{node.lineno}" for a in node.names if own(a.name)]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and own(node.module):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Call) and (
                    node.func.attr if isinstance(node.func, ast.Attribute)
                    else getattr(node.func, "id", None)) in LOOKUPS:
                found += [f"{path.name}:{node.lineno}"
                          for arg in (*node.args, *(k.value for k in node.keywords))
                          if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                          and own(arg.value)]
    assert found == []


def test_no_module_branches_on_a_model_class():
    # model behaviour lives on the model: no isinstance on a class of hamiltonians.py
    classes = {node.name for node in _parse(SRC / "hamiltonians.py").body
               if isinstance(node, ast.ClassDef)}
    assert {"HamiltonianModel", "KickedHarmonic"} <= classes
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(_parse(path))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and classes & {n.id if isinstance(n, ast.Name) else n.attr
                            for n in ast.walk(node.args[1])
                            if isinstance(n, (ast.Name, ast.Attribute))}]
    assert found == []


def test_no_function_takes_a_side():
    # integer times sample just before that instant's kick; the state just
    # after it is the kick's multiplier away, so no option picks a side
    found = [f"{path.name}:{node.lineno} {getattr(node, 'name', 'lambda')}"
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(_parse(path))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
             if arg.arg == "side"]
    assert found == []


def test_closed_forms_call_no_model_method():
    # the closed forms read model parameters only, so they stay independent
    # of the segment flows, kicks and shears they are compared with
    funcs = {node.name: node for node in _parse(TESTS / "oracles.py").body
             if isinstance(node, ast.FunctionDef)}
    assert set(CLOSED_FORMS) <= set(funcs)
    found = [f"{name}: .{node.func.attr}()"
             for name in CLOSED_FORMS for node in ast.walk(funcs[name])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in MODEL_METHODS]
    assert found == []
