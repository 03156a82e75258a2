#!/usr/bin/env python
"""AST lint gate: no direct ``np.`` calls inside backend-routed kernels.

The array-backend refactor routes the numeric hot paths through
``repro.backend`` so a solve can run on any backend (numpy is the
default and the only one shipped).  A raw ``np.`` call inside one of those kernels
silently pins the computation to the host and defeats the routing -- the
class of regression this gate exists to catch at lint time rather than
in a device-parity test.

Policy
------
* Only the functions listed in ``GATED`` are checked -- the numeric
  inner loops.  Structure/setup code (symbolic analysis, schedule
  construction, gather-plan building) is *intentionally* host numpy by
  contract and stays ungated.
* Harmless dtype/constant attributes (``np.float64``, ``np.inf``, ...)
  are always allowed: they are metadata, not computation.
* A line may opt out with a ``# backend-ok`` comment.  Every pragma
  should say why (host scalar, host plan, reduction payload, ...).

Run: ``python tools/check_backend_kernels.py`` (from the repo root; CI
runs it in the lint job).  Exit status 1 on any violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: backend-routed kernels: module path -> function names (methods are
#: matched by bare name; names here are unique within their module).
GATED: Dict[str, Tuple[str, ...]] = {
    "src/repro/sparse/csr.py": ("matvec", "matmat", "rmatvec"),
    "src/repro/tri/levelset.py": ("solve",),
    "src/repro/tri/supernodal.py": (
        "solve_forward",
        "solve_backward",
        "_rows_of",
        "_columns_of",
    ),
    "src/repro/ilu/fastilu.py": ("_run_sweeps",),
    "src/repro/dd/schwarz.py": ("apply",),
    "src/repro/krylov/gmres.py": ("_orthogonalize",),
    "src/repro/krylov/cg.py": ("cg",),
}

#: numpy module aliases whose attribute access is policed
NUMPY_ALIASES = frozenset({"np", "numpy"})

#: metadata attributes, not computation -- always fine in kernels
ALLOWED_ATTRS = frozenset(
    {
        "float16",
        "float32",
        "float64",
        "complex64",
        "complex128",
        "int8",
        "int16",
        "int32",
        "int64",
        "uint8",
        "uint32",
        "uint64",
        "bool_",
        "intp",
        "ndarray",
        "dtype",
        "newaxis",
        "inf",
        "nan",
        "pi",
        "e",
    }
)

PRAGMA = "# backend-ok"


class _KernelVisitor(ast.NodeVisitor):
    """Collects banned ``np.<attr>`` uses inside one gated function."""

    def __init__(self, func_name: str, lines: List[str]):
        self.func_name = func_name
        self.lines = lines
        self.violations: List[Tuple[int, str]] = []

    def visit_Attribute(self, node: ast.Attribute) -> None:
        value = node.value
        if (
            isinstance(value, ast.Name)
            and value.id in NUMPY_ALIASES
            and node.attr not in ALLOWED_ATTRS
        ):
            line = self.lines[node.lineno - 1]
            if PRAGMA not in line:
                self.violations.append(
                    (node.lineno, f"{value.id}.{node.attr}")
                )
        self.generic_visit(node)


def _iter_functions(tree: ast.Module) -> Iterable[ast.FunctionDef]:
    """All function/method defs in the module, depth-first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def check_file(rel_path: str, func_names: Tuple[str, ...]) -> List[str]:
    path = REPO_ROOT / rel_path
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    found = set()
    errors: List[str] = []
    for fn in _iter_functions(tree):
        if fn.name not in func_names:
            continue
        found.add(fn.name)
        visitor = _KernelVisitor(fn.name, lines)
        # skip the signature/decorators: only the body is the kernel
        for stmt in fn.body:
            visitor.visit(stmt)
        for lineno, expr in visitor.violations:
            errors.append(
                f"{rel_path}:{lineno}: direct `{expr}` in backend-routed "
                f"kernel `{fn.name}` (route through the backend or mark "
                f"the line `{PRAGMA}: <reason>`)"
            )
    for missing in set(func_names) - found:
        errors.append(
            f"{rel_path}: gated kernel `{missing}` not found -- update "
            "tools/check_backend_kernels.py if it moved or was renamed"
        )
    return errors


def main() -> int:
    all_errors: List[str] = []
    for rel_path, func_names in sorted(GATED.items()):
        all_errors.extend(check_file(rel_path, func_names))
    for err in all_errors:
        print(err, file=sys.stderr)
    if all_errors:
        print(
            f"[backend-lint] {len(all_errors)} violation(s)", file=sys.stderr
        )
        return 1
    n_funcs = sum(len(v) for v in GATED.values())
    print(
        f"[backend-lint] {n_funcs} gated kernels across {len(GATED)} "
        "modules: clean"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
