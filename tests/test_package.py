import json
import os
import subprocess
import sys
import textwrap

import pytest

import groupopt

SOURCE_DIR = os.path.dirname(os.path.dirname(groupopt.__file__))


def test_every_export_resolves():
    missing = [name for name in groupopt.__all__ if not hasattr(groupopt, name)]
    assert missing == []


def in_fresh_interpreter(code: str):
    """What code, run in a new interpreter that imports this groupopt, leaves
    in `result`; `loaded(before)` there names the groupopt modules and json
    imported since the set of module names before."""
    script = textwrap.dedent("""
        import json, sys
        def loaded(before):
            return sorted(m for m in set(sys.modules) - before
                          if m == "json" or m.split(".")[0] == "groupopt")
        start = set(sys.modules)
    """) + textwrap.dedent(code) + "\nprint(json.dumps(result))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SOURCE_DIR, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return json.loads(done.stdout)


def test_import_loads_only_blocks():
    assert in_fresh_interpreter("""
        import groupopt
        result = loaded(start)
    """) == ["groupopt", "groupopt.blocks"]


def test_regret_names_leave_the_training_stack_unloaded():
    assert in_fresh_interpreter("""
        from groupopt import OnlineProblem, run_regret
        result = loaded(start)
    """) == ["groupopt", "groupopt.blocks", "groupopt.optimizers", "groupopt.prox",
             "groupopt.regret"]


TRAINING_STACK = ["groupopt.data", "groupopt.metrics", "groupopt.model", "groupopt.pruning",
                  "groupopt.training"]
CLI_MODULES = ["groupopt", "groupopt.blocks", "groupopt.cli", "groupopt.optimizers",
               "groupopt.prox", "groupopt.regret"]


def modules_a_command_loads(argv):
    """The exit code of cli.main(argv), and the groupopt modules loaded, in a
    new interpreter."""
    return in_fresh_interpreter(f"""
        import contextlib, io
        from groupopt.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main({argv!r})
        result = [code, [m for m in loaded(start) if m != "json"]]
    """)


def test_cli_import_leaves_the_training_stack_unloaded():
    assert in_fresh_interpreter("""
        import groupopt.cli
        result = [m for m in loaded(start) if m != "json"]
    """) == CLI_MODULES


@pytest.mark.parametrize("argv", [["regret", "--horizon", "64"],
                                  ["prox-selftest", "--cases", "5"]],
                         ids=["regret", "prox-selftest"])
def test_regret_and_selftest_commands_leave_the_training_stack_unloaded(argv):
    assert modules_a_command_loads(argv) == [0, CLI_MODULES]


def test_train_command_loads_the_training_stack(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "data": {"num_fields": 2, "vocab_per_field": 10, "num_samples": 100, "seed": 1},
        "model": {"embed_dim": 2, "hidden_dims": [4]}}))
    assert (modules_a_command_loads(["train", "--config", str(path)])
            == [0, sorted(CLI_MODULES + TRAINING_STACK)])


def test_unused_names_are_no_exports():
    # each stays in the module that defines it
    assert in_fresh_interpreter("""
        import groupopt
        from groupopt.optimizers import NO_REG
        from groupopt.prox import OracleResult
        from groupopt.training import RunReport
        result = [hasattr(groupopt, name) for name in ("NO_REG", "OracleResult", "RunReport")]
    """) == [False, False, False]


def test_each_export_is_its_defining_modules_object():
    # a name that a module only imports (training's make_rng) would pass the
    # identity check, so functions and classes must also be defined there
    assert in_fresh_interpreter("""
        import importlib
        import groupopt
        result = []
        for module, names in groupopt._EXPORTS.items():
            owner = importlib.import_module(f"groupopt.{module}")
            for name in names:
                obj = getattr(groupopt, name)
                defined = getattr(obj, "__module__", owner.__name__)
                if not (obj is getattr(owner, name) and name in vars(groupopt)
                        and (isinstance(obj, str) or defined == owner.__name__)):
                    result.append(name)
    """) == []


def test_dir_lists_every_export():
    assert in_fresh_interpreter("""
        import groupopt
        result = sorted(set(groupopt.__all__) - set(dir(groupopt)))
    """) == []


def test_unknown_name_raises_attribute_error():
    assert in_fresh_interpreter("""
        import groupopt
        try:
            groupopt.no_such_name
            result = "resolved"
        except AttributeError as exc:
            result = [str(exc), hasattr(groupopt, "no_such_name"), loaded(start)]
    """) == ["module 'groupopt' has no attribute 'no_such_name'", False,
             ["groupopt", "groupopt.blocks"]]


def test_submodules_still_import_by_name():
    assert in_fresh_interpreter("""
        import sys
        import groupopt
        from groupopt import optimizers
        result = [optimizers is sys.modules["groupopt.optimizers"],
                  groupopt.training is sys.modules["groupopt.training"]]
    """) == [True, True]
