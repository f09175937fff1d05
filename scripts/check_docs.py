"""Documentation referential-integrity checker (``make docs-check``).

Scans the operator-facing documentation (README.md, DESIGN.md,
EXPERIMENTS.md, and -- auto-globbed, so new pages are covered the moment
they exist -- every ``docs/*.md``) and fails on *dangling* references, so
the docs cannot silently rot as the code moves:

* dotted code references — every ``repro.*`` token must resolve to an
  importable module or an attribute reachable from one
  (``repro.core.policy.ViaPolicy`` → import + getattr chain);
* ``ClassName.attr`` references — when ``ClassName`` is a class defined
  anywhere under :mod:`repro`, the attribute must exist on it;
* file paths — backticked paths and local markdown link targets must
  exist on disk (paths like ``core/policy.py`` are also tried relative
  to ``src/repro/``);
* pytest node ids — ``tests/test_x.py::test_name`` must name a test
  function that exists in that file;
* make targets — a backticked ``make <target>`` must name a rule (or
  ``.PHONY`` entry) defined in the repo Makefile;
* script paths — every ``examples/``, ``benchmarks/``, ``scripts/``,
  ``perf/`` or ``tests/`` ``*.py`` path on a ``python``/``pytest``
  command line inside a fenced code block, and on a Makefile recipe
  line, must exist;
* metric series — every ``via_*`` series a ``counter``/``gauge``/
  ``histogram`` call under ``src/`` registers by string literal must
  appear in one of the catalogue pages (:data:`SERIES_DOCS`), and every
  ``via_*`` series those pages' tables list must be registered;
* environment knobs — every ``REPRO_*`` name the docs mention must be
  read by some ``os.environ``/``os.getenv`` access (by string literal)
  under :data:`ENV_READERS`, or expanded by the Makefile, so a deleted
  knob cannot linger in the docs.

Exit status 0 when every reference resolves; 1 otherwise, listing each
dangling reference with its file and line.

    PYTHONPATH=src python scripts/check_docs.py
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Top-level documents checked by name; ``docs/*.md`` is globbed at run
#: time (see :func:`doc_files`), so a new handbook page is covered the
#: moment it exists -- forgetting to register it here cannot exempt it.
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
)


#: The pages that together are the metric catalogue.
SERIES_DOCS = ("docs/observability.md", "docs/persistence.md")


def doc_files() -> list[str]:
    """Every checked document: the fixed top-level set + all of docs/."""
    globbed = sorted(
        str(p.relative_to(REPO_ROOT)) for p in (REPO_ROOT / "docs").glob("*.md")
    )
    return [*DOC_FILES, *globbed]

#: ``repro.foo.Bar`` style dotted references (call parens already stripped).
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
#: Backticked spans; references are only harvested inside them (except
#: dotted repro refs, which are checked wherever they appear).
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
#: ``ClassName.attr`` inside backticks.
CLASS_ATTR_RE = re.compile(r"^([A-Z][A-Za-z0-9_]*)\.([a-z_][A-Za-z0-9_]*)$")
#: File-ish tokens: at least one path separator and a known extension.
PATH_RE = re.compile(r"^[\w./-]*/[\w.-]+\.(?:py|md|txt|json|toml|cfg)$")
#: pytest node ids.
NODE_RE = re.compile(r"^([\w./-]+\.py)::(\w+)$")
#: Local markdown link targets: [text](target).
LINK_RE = re.compile(r"\]\(([^)#\s]+)(?:#[\w-]*)?\)")
#: ``make <target>`` invocations inside backticks.
MAKE_RE = re.compile(r"^make\s+([A-Za-z][\w-]*)")
#: A fenced code block's opening or closing line.
FENCE_RE = re.compile(r"^\s*(```|~~~)")
#: A command line that runs Python.
PYTHON_CMD_RE = re.compile(r"\b(?:python3?|pytest)\b")
#: A script path under one of the repo's runnable trees.
SCRIPT_PATH_RE = re.compile(
    r"(?<![\w./-])((?:examples|benchmarks|scripts|perf|tests)/[\w./-]*\.py)\b"
)
#: A metric series name.
SERIES_RE = re.compile(r"\bvia_[a-z0-9_]+\b")
#: The series a catalogue table row documents: first cell, backticked.
SERIES_ROW_RE = re.compile(r"^\|\s*`(via_[a-z0-9_]+)")
#: An environment knob name.
ENV_RE = re.compile(r"\bREPRO_[A-Z_]+\b")
#: The trees whose ``os.environ`` reads make a documented knob real.
ENV_READERS = ("src", "benchmarks", "tests", "scripts")


def _make_targets() -> set[str]:
    """Phony/rule targets defined in the repo Makefile."""
    targets: set[str] = set()
    for line in (REPO_ROOT / "Makefile").read_text(encoding="utf-8").splitlines():
        match = re.match(r"^([A-Za-z][\w-]*)\s*:", line)
        if match:
            targets.add(match.group(1))
        if line.startswith(".PHONY:"):
            targets.update(line.split(":", 1)[1].split())
    return targets


def _class_index() -> dict[str, list[type]]:
    """Every public-ish class defined under :mod:`repro`, by name."""
    index: dict[str, list[type]] = {}
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
        try:
            module = importlib.import_module(info.name)
        except Exception:  # pragma: no cover - import errors surface elsewhere
            continue
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__.startswith("repro"):
                index.setdefault(name, [])
                if obj not in index[name]:
                    index[name].append(obj)
    return index


def _resolves(dotted: str) -> bool:
    """Does ``a.b.c`` import as a module or resolve via getattr?"""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _path_exists(token: str, doc_dir: Path) -> bool:
    candidates = (REPO_ROOT / token, doc_dir / token, REPO_ROOT / "src" / "repro" / token)
    return any(c.exists() for c in candidates)


def check_makefile() -> list[str]:
    """Every script path a Makefile recipe runs must exist."""
    lines = (REPO_ROOT / "Makefile").read_text(encoding="utf-8").splitlines()
    return [
        f"Makefile:{lineno}: recipe runs missing script `{script}`"
        for lineno, line in enumerate(lines, 1)
        if line.startswith("\t")
        for script in SCRIPT_PATH_RE.findall(line)
        if not (REPO_ROOT / script).exists()
    ]


def check_file(
    path: Path, classes: dict[str, list[type]], make_targets: set[str], env_vars: set[str]
) -> list[str]:
    problems: list[str] = []
    doc_dir = path.parent
    rel = path.relative_to(REPO_ROOT)
    fenced = False
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if FENCE_RE.match(line):
            fenced = not fenced
            continue
        if fenced and PYTHON_CMD_RE.search(line):
            problems.extend(
                f"{rel}:{lineno}: command runs missing script `{script}`"
                for script in SCRIPT_PATH_RE.findall(line)
                if not _path_exists(script, doc_dir)
            )
        for match in DOTTED_RE.finditer(line):
            dotted = match.group(0).split("(")[0]
            if not _resolves(dotted):
                problems.append(f"{rel}:{lineno}: dangling code ref `{dotted}`")
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if not _path_exists(target, doc_dir):
                problems.append(f"{rel}:{lineno}: dangling link target `{target}`")
        problems.extend(
            f"{rel}:{lineno}: `{knob}` is read by no os.environ access under "
            f"{', '.join(ENV_READERS)} or the Makefile"
            for knob in ENV_RE.findall(line)
            if knob not in env_vars
        )
        for span in BACKTICK_RE.findall(line):
            token = span.strip().split("(")[0]
            node = NODE_RE.match(span.strip())
            if node:
                test_file = REPO_ROOT / node.group(1)
                if not test_file.exists():
                    problems.append(f"{rel}:{lineno}: dangling test file `{node.group(1)}`")
                elif f"def {node.group(2)}" not in test_file.read_text(encoding="utf-8"):
                    problems.append(f"{rel}:{lineno}: dangling test id `{span.strip()}`")
                continue
            if PATH_RE.match(span.strip()):
                if not _path_exists(span.strip(), doc_dir):
                    problems.append(f"{rel}:{lineno}: dangling file ref `{span.strip()}`")
                continue
            make_ref = MAKE_RE.match(span.strip())
            if make_ref:
                if make_ref.group(1) not in make_targets:
                    problems.append(
                        f"{rel}:{lineno}: dangling make target `make {make_ref.group(1)}`"
                    )
                continue
            attr_ref = CLASS_ATTR_RE.match(token)
            if attr_ref and attr_ref.group(1) in classes:
                name, attr = attr_ref.group(1), attr_ref.group(2)
                if not any(hasattr(cls, attr) for cls in classes[name]):
                    problems.append(f"{rel}:{lineno}: dangling attribute ref `{token}`")
    return problems


def registered_series() -> dict[str, str]:
    """Every ``via_*`` series registered by literal name under ``src/``,
    mapped to the ``file:line`` of (one of) its registration call(s)."""
    found: dict[str, str] = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            match node:
                case ast.Call(
                    func=ast.Attribute(attr="counter" | "gauge" | "histogram"),
                    args=[ast.Constant(value=str(name)), *_],
                ) if name.startswith("via_"):
                    found.setdefault(name, f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    return found


def check_series() -> list[str]:
    """Registered series and the catalogue tables must name the same set."""
    registered = registered_series()
    mentioned: set[str] = set()
    problems: list[str] = []
    for name in SERIES_DOCS:
        lines = (REPO_ROOT / name).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            mentioned.update(SERIES_RE.findall(line))
            row = SERIES_ROW_RE.match(line)
            if row and row.group(1) not in registered:
                problems.append(
                    f"{name}:{lineno}: catalogue lists `{row.group(1)}`, "
                    "which nothing under src/ registers"
                )
    problems.extend(
        f"{where}: series `{series}` is in no catalogue page ({', '.join(SERIES_DOCS)})"
        for series, where in sorted(registered.items())
        if series not in mentioned
    )
    return problems


def _is_environ(node: ast.AST) -> bool:
    """Is ``node`` the expression ``os.environ``?"""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def read_env_vars() -> set[str]:
    """``REPRO_*`` names read by string literal under :data:`ENV_READERS`
    (``os.environ.get``, ``os.getenv``, ``os.environ[...]``, ``... in
    os.environ``) or expanded by the Makefile (``$(NAME)``)."""
    makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
    names = set(re.findall(r"\$[({](REPRO_[A-Z_]+)[)}]", makefile))
    for tree in ENV_READERS:
        for path in sorted((REPO_ROOT / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                match node:
                    case ast.Call(
                        func=ast.Attribute(value=env, attr="get"),
                        args=[ast.Constant(value=str(name)), *_],
                    ) if _is_environ(env):
                        names.add(name)
                    case ast.Call(
                        func=ast.Attribute(value=ast.Name(id="os"), attr="getenv"),
                        args=[ast.Constant(value=str(name)), *_],
                    ):
                        names.add(name)
                    case ast.Subscript(
                        value=env, slice=ast.Constant(value=str(name)), ctx=ast.Load()
                    ) if _is_environ(env):
                        names.add(name)
                    case ast.Compare(
                        left=ast.Constant(value=str(name)), ops=[ast.In()], comparators=[env]
                    ) if _is_environ(env):
                        names.add(name)
    return names


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    classes = _class_index()
    make_targets = _make_targets()
    env_vars = read_env_vars()
    problems: list[str] = []
    n_checked = 0
    for name in doc_files():
        path = REPO_ROOT / name
        if not path.exists():
            problems.append(f"{name}: listed in DOC_FILES but missing")
            continue
        n_checked += 1
        problems.extend(check_file(path, classes, make_targets, env_vars))
    problems.extend(check_series())
    problems.extend(check_makefile())
    if problems:
        print(f"docs-check: {len(problems)} dangling reference(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs-check: OK ({n_checked} documents, no dangling references)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
