"""No test-only code in src/: every function and method defined in
src/okubo is called by a production run.

The run is `verify-all --seed 7`, the README's examples of the CLI and a
few refusals, traced with sys.settrace on call events only.  Dunders
and lambdas are exempt; ALLOWED lists the functions the run does not
reach, each with the reason it stays.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

import okubo
from okubo import cli
from okubo.sampling import draw_perturbed_chart, rng_for

SRC = Path(okubo.__file__).resolve().parent

#: functions the traced run does not call, and why they stay
ALLOWED = {
    "series.hyp2f1": "public float entry; perfbench's series-numeric "
                     "workload requests it",
    "series.hyp2f1_jet": "named in perfbench's spans.TARGETS",
    "series.product_vector_w": "named in perfbench's spans.TARGETS",
    "sampling._give_up": "error path: a draw loop that runs out of "
                         "candidates, which no seed reaches",
}

PARAMS = {"alpha1": "1/3", "alpha2": "1/7", "beta1": "1/5",
          "beta2": "1/11"}
DF = ["--a", "1/3", "--b", "1/5", "--c", "1/7", "--g", "1/2"]


def defined_functions() -> dict:
    """{(file, first line of the code object): "module.qualname"} of every
    def in src/okubo but dunders; a decorated function's code starts at
    its first decorator."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{name}"
                walk(child, path, f"{name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set:
    """(file, first line) of every code object that the CLI run calls."""
    tmp = tmp_path_factory.mktemp("reach")
    params = _write(tmp / "params.json", PARAMS)
    out = str(tmp / "out.json")

    def run(expected, *argv):
        code = cli.main([*argv, "--out", out])
        assert code == expected, (argv, Path(out).read_text())
        return json.loads(Path(out).read_text())

    seen = set()

    def tracer(frame, event, arg):
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.settrace(tracer)
    try:
        coeff = _write(tmp / "coeff.json", run(
            0, "build-okubo", "--params", params)["coeff"])
        chart = _write(tmp / "chart.json", run(
            0, "solve-accessory", "--a", "1/3", "--b", "1/5", "--c", "1/7",
            "--d", "1/11")["chart"])
        perturbed = _write(tmp / "perturbed.json",
                           draw_perturbed_chart(rng_for(0)).to_json())
        df_params = _write(tmp / "df.json", {"a": "1/3", "b": "1/5",
                                             "c": "1/7", "g": "1/2",
                                             "x": 0.4})
        degenerate = _write(tmp / "degenerate.json",
                            {"a": "1/3", "b": "1/5", "c": "1/7",
                             "d": "1/11", "r": ["0", "1", "2", "3"]})
        big = _write(tmp / "big.json", {**PARAMS, "alpha1": str(10 ** 400)})
        inexact = _write(tmp / "inexact.json", {**PARAMS, "alpha1": 0.5})
        for expected, *argv in [
                (0, "verify-all", "--seed", "7"),
                (0, "build-product", "--params", params),
                (0, "recover-chart", "--matrix", coeff, "--a", "443/1155",
                 "--b=-173/1155", "--c", "107/1155", "--d", "47/1155"),
                (0, "check-same", "--chart", chart),
                (1, "check-same", "--chart", perturbed, "--pair", "0-inf"),
                (0, "verify-realize", "--params", params),
                (0, "series", "--params", params, "--base", "inf",
                 "--index", "0", "--terms", "80", "--mode", "exact"),
                (0, "series", "--params", params, "--base", "1",
                 "--index", "0", "--terms", "20"),
                (0, "residual", "--chart", chart, "--base", "1", "--index",
                 "0", "--terms", "80", "--seed", "3"),
                (0, "residual", "--params", params, "--base", "0",
                 "--index", "1", "--terms", "80", "--seed", "3", "--mode",
                 "exact"),
                (0, "v-vector", "--params", params, "--x", "0.2", "--terms",
                 "80"),
                (1, "v-vector", "--params", params, "--x", "0.5", "--terms",
                 "1"),
                (0, "df-build", *DF),
                (0, "df-reduce", *DF),
                (0, "df-verify", *DF),
                (0, "df-solve", "--params", df_params, "--nodes", "16"),
                # refusals: a chart with r1 = 0, alpha1 = 10^400 beyond
                # the double range, and a float alpha1
                (2, "check-same", "--chart", degenerate),
                (2, "v-vector", "--params", big, "--x", "0.2"),
                (2, "build-product", "--params", inexact)]:
            run(expected, *argv)
    finally:
        sys.settrace(None)
    files = {name: str(Path(name).resolve()) for name, _ in seen}
    return {(files[name], line) for name, line in seen}


def test_every_src_function_is_reached(called):
    unreached = sorted(name for key, name in defined_functions().items()
                       if key not in called and name not in ALLOWED)
    assert not unreached, unreached


def test_allowlist_names_functions_that_exist():
    assert set(ALLOWED) <= set(defined_functions().values())
