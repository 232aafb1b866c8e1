"""Source layout: no module-level definition or import in the package
is left without a caller."""

import ast
import dataclasses
from pathlib import Path

import pdeseries
from pdeseries import expr, hpm, series

PACKAGE = Path(pdeseries.__file__).resolve().parent


def _names(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, imports or reaches as an attribute."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_definition_is_used_or_exported():
    statements = []  # (module, top-level statement)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        statements.extend((path.stem, stmt) for stmt in tree.body)
    defined = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    uses = [_names(stmt) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, defined) or stmt.name in pdeseries.__all__:
            continue
        # a definition that only names itself has no caller
        if not any(stmt.name in names for j, names in enumerate(uses) if j != i):
            unused.append(f"{module}.{stmt.name}")
    assert unused == []


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue  # its imports are the package's exports
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unread.append(f"{path.stem}.{name}")
    assert unread == []


def test_only_the_ring_forms_products_it_must_check():
    # a product can raise an exponent past its field, so every one goes
    # through Ring.product or Ring.dot, which refuse it; modules outside
    # poly neither call a check by hand nor import the unchecked product
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "poly":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            call = node.func if isinstance(node, ast.Call) else None
            if isinstance(call, ast.Attribute) and call.attr == "checked":
                offenders.append(f"{path.stem}:{node.lineno} calls .checked(")
            if isinstance(node, ast.ImportFrom) and any(a.name == "mul" for a in node.names):
                offenders.append(f"{path.stem}:{node.lineno} imports mul")
    assert offenders == []


def test_the_cli_calls_only_the_public_engine_api():
    # one path per command: what the CLI takes from the engines is what
    # a caller of the package can call too
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{stmt.module}.{alias.name}"
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.module in ("taylor", "hpm", "verify")
        for alias in stmt.names
        if alias.name not in pdeseries.__all__
    ]
    assert private == []


def test_the_jets_neither_differentiate_nor_substitute_trees():
    # each function's Taylor coefficients come from its derivative rule
    tree = ast.parse((PACKAGE / "series.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"_diff", "substitute"})


def test_one_jets_kernel_on_the_ring():
    # expand and the engines expand in time by one class, on polynomials;
    # no tree is summed or multiplied in series.py, and expand prints rows
    series = ast.parse((PACKAGE / "series.py").read_text(encoding="utf-8"))
    classes = [node.name for node in series.body if isinstance(node, ast.ClassDef)]
    assert [name for name in classes if "Jets" in name] == ["_Jets"]
    imported = {alias.name for node in ast.walk(series) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported.isdisjoint({"esum", "eprod"})
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert "print_expr" not in _names(cli)


def test_the_cli_states_only_the_rules_no_api_function_has():
    # the API owns the counts, so --corrections, --order and --dim errors
    # carry its words; only --expr has no rule in the API
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    messages = [_template(node.exc.args[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) != "SystemExit"]
    assert messages and all(m and m.startswith("--expr ") for m in messages)


def test_a_tree_node_caches_only_its_hash_and_sort_key():
    # every node pays for a cache slot, so another one comes back only
    # with a beneficiary whose gain is measured
    assert expr._Compound.__slots__ == ("_hash", "_key")


def _functions(tree: ast.Module):
    """(qualified name, definition) of each function and method of a module."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from ((f"{stmt.name}.{f.name}", f) for f in stmt.body
                        if isinstance(f, ast.FunctionDef))


def test_one_calculus_on_the_ring():
    # derivatives are taken by Ring.diff alone: no tree is differentiated
    gone = {"differentiate", "_diff", "_outer_derivative"}
    assert not hasattr(pdeseries, "differentiate")
    offenders, formers, readers = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in gone:
                offenders.append(f"{path.stem} defines {node.name}")
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.stem} imports {a.name}" for a in node.names if a.name in gone]
        # f'(a) of a cycling function is its partner: a function built of
        # a name read from PARTNERS forms f'(a)
        for name, func in _functions(tree):
            partners = {n.id for stmt in ast.walk(func) if isinstance(stmt, ast.Assign)
                        and "PARTNERS" in _names(stmt.value)
                        for target in stmt.targets for n in ast.walk(target)
                        if isinstance(n, ast.Name)}
            for call in ast.walk(func):
                if not isinstance(call, ast.Call):
                    continue
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee == "outer":
                    readers.add(name)
                if callee in ("Func", "func", "_func") and call.args and \
                        getattr(call.args[0], "id", None) in partners:
                    formers.append(f"{path.stem}.{name}")
    assert offenders == []
    assert formers == ["poly.Ring.outer"]
    assert {"Ring._atom_derivative", "_Jets._func"} <= readers


def test_no_member_restates_another_or_waits_for_a_caller():
    # len(h.corrections) - 1 is the correction count and len(m.entries) a
    # matrix's size; partial_sum sizes its own ring
    assert [f.name for f in dataclasses.fields(hpm.HpmExpansion)] == [
        "corrections", "working_order"]
    assert not hasattr(series.RationalMatrix, "size")
    assert not hasattr(series, "series_ring")
    # a problem checks itself and sets its inverse, ring and forcing cache
    # in its constructor, and copies carry them as they are
    assert [f.name for f in dataclasses.fields(series.ProblemSpec)] == [
        "m", "n", "rho", "L", "f_source", "u0", "u1", "order"]
    gone = ("checked_problem", "problem_ring", "_fields", "__getstate__")
    assert [f"{path.stem} names {name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in gone if name in path.read_text(encoding="utf-8")] == []


def test_no_module_tests_for_cos_by_name():
    # D cos = -sin is stated once, in poly.PARTNERS, which Ring.outer reads
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(n, ast.Constant) and n.value == "cos"
                    for n in (node.left, *node.comparators)):
                offenders.append(f"{path.stem}:{node.lineno}")
    assert offenders == []


def _template(node: ast.AST) -> str | None:
    """The text of a string or f-string, each replacement field as {}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    return None


def test_no_message_is_raised_from_two_places():
    # a rule checked in two places drifts apart, so no message template
    # of a raise appears twice.  Left out are DomainError, which the tree
    # and the ring kernels each raise for the same arithmetic fault, in
    # the same words whichever kernel meets it; TypeError, which ends each
    # dispatch over the kinds of node; and the grammar's ParseErrors,
    # whose "unexpected {}" names the token found in two places of a
    # parse and whose "{}: {}" prefixes a field name to another message
    skipped = {"DomainError", "TypeError", "ParseError"}
    seen: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
                continue
            if getattr(node.exc.func, "id", None) in skipped:
                continue
            template = _template(node.exc.args[0])
            if template is not None:
                seen.setdefault(template, []).append(f"{path.stem}:{node.lineno}")
    assert {t: where for t, where in seen.items() if len(where) > 1} == {}
