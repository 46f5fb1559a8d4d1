import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import groupopt
from groupopt.blocks import (COUNT, ConfigError, ParamBlock, check_fields, group_l2_norms,
                             integers, make_rng, names, optional, pin_malloc_thresholds, reals,
                             sequence)

SOURCE_DIR = os.path.dirname(os.path.dirname(groupopt.__file__))


def naive_group_norms(values, group_size):
    """Loop-based reference for the vectorized group norms."""
    out = []
    for lo in range(0, len(values), group_size):
        chunk = values[lo:lo + group_size]
        out.append(np.sqrt(sum(float(v) ** 2 for v in chunk)))
    return np.array(out)


class TestMakeRng:
    def test_deterministic(self):
        a = make_rng(42).normal(size=16)
        b = make_rng(42).normal(size=16)
        assert_allclose(a, b)

    def test_seeds_differ(self):
        assert not np.allclose(make_rng(1).normal(size=8), make_rng(2).normal(size=8))


class TestParamBlock:
    def test_ravels_and_casts(self):
        block = ParamBlock("w", np.arange(6, dtype=np.int32).reshape(2, 3))
        assert block.values.dtype == np.float64
        assert block.values.shape == (6,)

    def test_grouped_properties(self):
        block = ParamBlock("e", np.zeros(12), group_size=4)
        assert block.grouped
        assert block.num_groups == 3

    def test_group_size_must_divide(self):
        with pytest.raises(ValueError):
            ParamBlock("e", np.zeros(10), group_size=4)

    @pytest.mark.parametrize("group_size", [2.0, True, "2", 0, -2])
    def test_group_size_must_be_a_positive_integer(self, group_size):
        with pytest.raises(ValueError) as info:
            ParamBlock("e", np.zeros(4), group_size=group_size)
        assert str(info.value) == ("block 'e': group_size: must be an integer >= 1, "
                                   f"got {group_size!r}")

    def test_numpy_integer_group_size_accepted(self):
        assert ParamBlock("e", np.zeros(4), group_size=np.int64(2)).num_groups == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ParamBlock("w", np.array([1.0, np.nan]))

    def test_copy_is_independent(self):
        block = ParamBlock("w", np.ones(4), group_size=2)
        dup = block.copy()
        dup.values[0] = 7.0
        assert block.values[0] == 1.0
        assert dup.group_size == 2


INF, NAN = math.inf, math.nan
TINY = 5e-324  # the least positive double
BELOW_ONE = math.nextafter(1.0, 0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
OPEN_CLOSED = reals(0, 1, "(]")
CLOSED_OPEN = reals(0, 1, "[)")
CLOSED_INF = reals(0, INF, "[]")
OPEN_INF = reals(0, INF, "()")
NAMES = names("sgd", "adam")
COUNTS = sequence(COUNT)
NONEMPTY = sequence(nonempty=True)
MAYBE = optional(integers(0))

# (domain, value, the whole message refusing it as field "f", or None where
# it is accepted); for each kind: each bound from both sides, NaN, +-inf, a
# bool, a string, and numpy integer and float scalars
DOMAIN_CASES = [
    *((integers(1), v, None) for v in (1, 2**70, np.int64(1), np.uint8(7))),
    *((integers(1), v, f"f: must be an integer >= 1, got {v!r}")
      for v in (0, -1, np.int64(0), 1.0, np.float64(2.0), NAN, INF, -INF, True, False,
                "1", None)),
    *((integers(-2), v, None) for v in (-2, 0)),
    (integers(-2), -3, "f: must be an integer >= -2, got -3"),
    *((OPEN_CLOSED, v, None) for v in (TINY, 0.5, 1.0, 1, np.float64(1.0), np.float32(0.5),
                                       np.int64(1))),
    *((OPEN_CLOSED, v, f"f: must be a real number in (0, 1], got {v!r}")
      for v in (0.0, -0.0, 0, ABOVE_ONE, np.float64(0.0), np.int64(0), NAN, INF, -INF, True,
                "0.5", None, [0.5])),
    *((CLOSED_OPEN, v, None) for v in (0.0, -0.0, 0, BELOW_ONE, np.float64(0.0), np.int64(0))),
    *((CLOSED_OPEN, v, f"f: must be a real number in [0, 1), got {v!r}")
      for v in (-TINY, 1.0, 1, np.float64(1.0), np.int64(1), NAN, INF, -INF, False, "0")),
    *((CLOSED_INF, v, None) for v in (0.0, 1e308, INF, np.float64(INF), np.int64(5))),
    *((CLOSED_INF, v, f"f: must be a real number in [0, inf], got {v!r}")
      for v in (-TINY, -INF, NAN, np.float64(NAN), True, "inf")),
    *((OPEN_INF, v, None) for v in (TINY, 1e308, np.float32(0.1), np.int64(2))),
    *((OPEN_INF, v, f"f: must be a real number in (0, inf), got {v!r}")
      for v in (0.0, -0.0, INF, np.float64(INF), -INF, NAN, True, "0.1")),
    *((NAMES, v, None) for v in ("sgd", "adam", np.str_("adam"))),
    *((NAMES, v, f"f: must be one of 'sgd', 'adam', got {v!r}")
      for v in ("Adam", "", ("sgd",), NAN, INF, True, 1, np.int64(0), np.float64(0.0), None)),
    *((COUNTS, v, None) for v in ([8, 4], (), (np.int64(8),), np.array([3, 2]))),
    *((COUNTS, v, f"f: must be a sequence of integers >= 1, got {v!r}")
      for v in (8, [0], [8.5], [8, True], ["8"], "8", [NAN], [INF], np.int64(8),
                np.float64(8.0), None, iter([8]), np.array(8))),
    *((NONEMPTY, v, None) for v in ([0.1], ("x",), [NAN])),
    *((NONEMPTY, v, f"f: must be a nonempty sequence, got {v!r}")
      for v in ([], (), "", 0.5, NAN, True, np.float64(0.5), None, (x for x in [0.1]))),
    *((MAYBE, v, None) for v in (None, 0, np.int64(3))),
    *((MAYBE, v, f"f: must be an integer >= 0 or None, got {v!r}")
      for v in (-1, 0.0, NAN, -INF, True, "0", np.float64(0.0))),
]


@pytest.mark.parametrize("domain, value, message", DOMAIN_CASES,
                         ids=[f"{case[0].words}-{case[1]!r}" for case in DOMAIN_CASES])
def test_domain_check(domain, value, message):
    assert domain.accepts(value) == (message is None)
    if message is None:
        domain.check("f", value)
        return
    with pytest.raises(ValueError) as info:
        domain.check("f", value)
    assert type(info.value) is ValueError and str(info.value) == message
    with pytest.raises(ConfigError) as info:
        domain.check("f", value, ConfigError)
    assert str(info.value) == message


def test_check_fields_refuses_the_first_field_in_table_order():
    table = {"b": COUNT, "a": NAMES, "c": COUNT}
    check_fields(table, {"a": "sgd", "b": 1, "c": 2, "other": object()})
    with pytest.raises(ConfigError, match=r"^a: must be one of 'sgd', 'adam', got 'x'$"):
        check_fields(table, {"a": "x", "b": 1, "c": 0}, ConfigError)
    with pytest.raises(ValueError, match=r"^b: must be an integer >= 1, got 0$"):
        check_fields(table, {"a": "x", "b": 0, "c": 0})


class TestGroupNorms:
    def test_against_naive_loop(self):
        rng = make_rng(0)
        for group_size in (1, 2, 5):
            values = rng.normal(size=30)
            block = ParamBlock("e", values, group_size=group_size)
            assert_allclose(group_l2_norms(block), naive_group_norms(values, group_size),
                            rtol=1e-13)

    def test_ungrouped_raises(self):
        block = ParamBlock("w", np.array([3.0, -4.0, 0.0]))
        with pytest.raises(ValueError):
            group_l2_norms(block)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_within_group_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=12)
        block = ParamBlock("e", values, group_size=4)
        shuffled = values.reshape(3, 4).copy()
        for row in shuffled:
            rng.shuffle(row)
        other = ParamBlock("e", shuffled, group_size=4)
        assert_allclose(group_l2_norms(block), group_l2_norms(other), rtol=1e-12)



# Page faults while a fresh interpreter makes and frees three 640,000-B
# arrays (temporaries of a step on a 10,000 x 8 table) fifty times.
FAULT_PROBE = """
import resource
import numpy as np
{imports}
table = np.ones((10_000, 8))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    temporaries = [table * 2.0 for _ in range(3)]
    del temporaries
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _probe_faults(imports: str) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    # the child imports the groupopt under test, installed or not
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SOURCE_DIR, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE.format(imports=imports)],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return int(done.stdout)


@pytest.mark.skipif(not pin_malloc_thresholds(), reason="malloc is not glibc's")
def test_importing_groupopt_keeps_table_sized_temporaries_on_the_heap():
    # unpinned, some of the three are mapped afresh or trimmed off the heap
    # on every pass, at about 157 faults each
    assert _probe_faults("") > 50 * 157
    # pinned, the first pass's pages serve the other 49
    assert _probe_faults("import groupopt") < 2 * 3 * 157
