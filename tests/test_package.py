"""The package holds no re-exports, each module loads only what it imports,
and no module calls a BLAS product."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import taildep


def test_core_modules_load_no_bootstrap_module():
    # the benchmark's in-process worker imports these three, and its
    # set-up time counts every module they load
    script = (
        "import sys\n"
        "import taildep.tail_core, taildep.estimators, taildep.support_fit\n"
        "print(sorted(m for m in ('taildep.boot_tests', 'taildep.datagen', 'taildep.statdist')"
        " if m in sys.modules))\n"
    )
    src = str(Path(taildep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"



def test_no_module_calls_a_blas_product():
    # OpenBLAS picks a dot's summation order by CPU and thread count, so
    # every sum is np.add.reduce
    products = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum"}
    found = []
    for path in sorted(Path(taildep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in products
                    or isinstance(node, ast.alias) and node.name in products
                    or isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.MatMult)):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert found == []
