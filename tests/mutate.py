"""Mutation probe: how many one-site faults in a refsum module do its tests catch?

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutate.py profile   # every mutant of src/refsum/profile.py

Four operators each make one mutant per site: flip a comparison (``<`` to
``>=``, ``is`` to ``is not``, ...), swap ``and``/``or``, add 1 to an int
literal, and drop a ``not``. ``src/`` and ``tests/`` are copied to a temporary
directory, and each mutant is written into that copy, never into the working
tree. Mutants run one at a time against the module's test files
(``tests/test_<module>*.py`` unless ``--tests`` names others) with ``pytest -x``.

A mutant is killed when the tests fail or time out. A survivor listed in
``EQUIVALENT`` behaves like the original on every input, for the reason given
there. The exit status is 1 when a survivor is not listed, or a listed mutant
was killed or no longer exists. Standard library only, apart from the test run.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Mutants no test can kill, keyed "<module>: <scope>: <before> -> <after>".
EQUIVALENT = {
    "profile: _Columns._read: not any(is_mapping.values()) -> any(is_mapping.values())":
        "speed only: records that are not mappings take the general path, which reads "
        "the same values",
    "profile: _Columns.numbers: (kind := type(v)) is int or kind is float -> "
    "(kind := type(v)) is int and kind is float":
        "speed only: every value goes through _number, which passes an int or float as it is",
    "profile: top_reference_per_group.rank: 0 -> 1":
        "an absent count ranks by `count is None` first, so its stand-in never orders",
    "profile: _Tally.__init__: 1 -> 2":
        "-2 is no record index either, so the first record still starts a new tally",
    "bibtex: _Scanner.__init__: 0 -> 1 #4":
        "(1, -1) holds no position, as (0, -1) does, so the first fault still searches",
    "bibtex: _Scanner.__init__: 1 -> 2":
        "(0, -2) holds no position, as (0, -1) does, so the first fault still searches",
    "bibtex: _Scanner._next_block: 1 -> 2 #3":
        "how far back over the line's indent it looks changes no answer a fault asks for: "
        "the search runs forward over whitespace to the same line-start '@'",
    "bibtex: _Scanner._next_block: 1 -> 2 #4":
        "how far back over the line's indent it looks changes no answer a fault asks for: "
        "the search runs forward over whitespace to the same line-start '@'",
    "bibtex: _Scanner._next_block: 1 -> 2 #5":
        "resuming one char before the '@' is harmless: that char is the line's indent or "
        "newline, which the scan skips",
    "bibtex: _Scanner._close_of: end is not None or start >= self._settled -> "
    "end is not None and start >= self._settled":
        "speed only: a kept close, or a '{' past the settled point, is then walked again "
        "and the walk gives the same answer",
    "names: _parse_one: 4096 -> 4097":
        "memo bound: it sets how many distinct names stay cached, not what a parse returns",
    "records: _venue: 1024 -> 1025":
        "memo bound: it sets how many distinct venues stay cached, not what a lookup returns",
    "records: _rule_regex: 4096 -> 4097":
        "memo bound: it sets how many distinct rule patterns stay compiled, not what a rule "
        "matches",
    "records: load_record_lines: 3 -> 4":
        "search bound: len(first_line) + 1 candidate ids already hold a free one, and the "
        "first free one is taken either way",
    "records: load_record_lines: type(venue_type) is not str -> type(venue_type) is str":
        "speed only: a valid venue type then takes the general path, which returns it as is",
    "records: load_record_lines: domain is not None and type(domain) is not str -> "
    "domain is not None or type(domain) is not str":
        "speed only: null and a str then take the general path, which returns them as they are",
    "records: load_record_lines: subdomain is not None and type(subdomain) is not str -> "
    "subdomain is not None or type(subdomain) is not str":
        "speed only: null and a str then take the general path, which returns them as they are",
    "records: load_record_lines: flag is not None and type(flag) is not bool -> "
    "flag is not None or type(flag) is not bool":
        "speed only: null and a bool then take the general path, which returns them as they are",
}

_NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}


class Mutator(ast.NodeTransformer):
    """Collects a module's mutants in a fixed order; with ``target``, applies that one."""

    def __init__(self, target: int | None = None) -> None:
        self.target = target
        self.sites: list[tuple[int, str, str]] = []   # (line, scope, "before -> after")
        self.scope: list[str] = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()
        return node

    visit_ClassDef = visit_FunctionDef = _scoped

    def _offer(self, node, mutant):
        self.sites.append((node.lineno, ".".join(self.scope) or "<module>",
                           f"{ast.unparse(node)} -> {ast.unparse(mutant)}"))
        return mutant if len(self.sites) - 1 == self.target else node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for j, op in enumerate(node.ops):
            mutant = copy.deepcopy(node)
            mutant.ops[j] = _NEGATED[type(op)]()
            node = self._offer(node, mutant)
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        mutant = copy.deepcopy(node)
        mutant.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        return self._offer(node, mutant)

    def visit_Constant(self, node):
        if type(node.value) is not int:
            return node
        return self._offer(node, ast.Constant(node.value + 1))

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return self._offer(node, node.operand) if isinstance(node.op, ast.Not) else node


def mutant_ids(module: str, source: str) -> list[tuple[int, str]]:
    """``(line, id)`` per mutant; a repeated id gets `` #2``, `` #3``, ..."""
    mutator = Mutator()
    mutator.visit(ast.parse(source))
    seen: dict[str, int] = {}
    out = []
    for line, scope, change in mutator.sites:
        key = f"{module}: {scope}: {change}"
        seen[key] = seen.get(key, 0) + 1
        out.append((line, key if seen[key] == 1 else f"{key} #{seen[key]}"))
    return out


def mutated(source: str, target: int | None) -> str:
    return ast.unparse(Mutator(target).visit(ast.parse(source)))


def run_tests(workdir: Path, tests: list[str], timeout: float) -> bool | None:
    """True when the tests pass, False when one fails, None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(command, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/refsum, such as profile")
    parser.add_argument("--tests", nargs="+", metavar="FILE",
                        help="test files to run, relative to the repository root")
    args = parser.parse_args(argv)

    relpath = f"src/refsum/{args.module}.py"
    source = (ROOT / relpath).read_text(encoding="utf-8")
    ids = mutant_ids(args.module, source)
    tests = args.tests or sorted(str(p.relative_to(ROOT))
                                 for p in ROOT.glob(f"tests/test_{args.module}*.py"))

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="refsum-mutate-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, workdir / tree, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", workdir)
        target_file = workdir / relpath

        target_file.write_text(mutated(source, None), encoding="utf-8")
        baseline = time.monotonic()
        if not run_tests(workdir, tests, timeout=600):
            print(f"the tests fail on the unmutated {relpath}; nothing to measure")
            return 2
        timeout = max(60.0, 10 * (time.monotonic() - baseline))

        killed = equivalent = 0
        survivors, wrongly_listed = [], []
        for index, (line, key) in enumerate(ids):
            target_file.write_text(mutated(source, index), encoding="utf-8")
            passed = run_tests(workdir, tests, timeout)
            listed = key in EQUIVALENT
            if not passed:
                killed += 1
                verdict = "killed" if passed is False else "killed (timeout)"
                if listed:
                    wrongly_listed.append(key)
            elif listed:
                equivalent += 1
                verdict = "equivalent"
            else:
                survivors.append(f"{relpath}:{line}  {key}")
                verdict = "SURVIVED"
            print(f"{verdict:<16} {relpath}:{line}  {key}", flush=True)

    present = {key for _line, key in ids}
    missing = [key for key in EQUIVALENT
               if key.startswith(f"{args.module}: ") and key not in present]
    print(f"\n{args.module}: {len(ids)} mutants, {killed} killed, {equivalent} equivalent, "
          f"{len(survivors)} survived; {time.monotonic() - started:.0f} s against "
          f"{' '.join(tests)}")
    for title, keys in (("survived, not listed as equivalent", survivors),
                        ("listed as equivalent but killed", wrongly_listed),
                        ("listed as equivalent but no such mutant", missing)):
        if keys:
            print(f"{title}:", *keys, sep="\n  ")
    return 1 if survivors or wrongly_listed or missing else 0


if __name__ == "__main__":
    sys.exit(main())
