"""Same bits: tests/bits.py, run in a fresh interpreter, prints the digests
of tests/bits_reference.txt.

The reference was made in one environment, which its header names: Python,
numpy, numpy's BLAS build and the CPU features numpy dispatches on. In any
other environment the test skips, as a ufunc's SIMD loop or another BLAS may
round differently. A change that alters a digest on purpose replaces only
that line of the reference, and says which and why.
"""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
REFERENCE = TESTS / "bits_reference.txt"
HEADER = "# environment: "


def environment() -> str:
    """Python, numpy, the BLAS build and the CPU, as one line."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
        simd = " ".join(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = simd = "unknown"
    return (f"python {platform.python_version()} | numpy {np.__version__} | blas {blas} | "
            f"{platform.machine()} {simd}")


def digests(lines) -> dict:
    """Run name -> digest, from lines "NAME DIGEST" ('#' lines left out)."""
    runs = (line.rsplit(" ", 1) for line in lines if line and not line.startswith("#"))
    return {name: digest for name, digest in runs}


def test_bits_match_the_reference():
    text = REFERENCE.read_text().splitlines()
    made_in = next(line[len(HEADER):] for line in text if line.startswith(HEADER))
    here = environment()
    if here != made_in:
        pytest.skip(f"reference made in [{made_in}], this is [{here}]")
    reference = digests(text)
    done = subprocess.run([sys.executable, "-W", "error", str(TESTS / "bits.py")],
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    printed = digests(lines)
    assert len(printed) == len(lines), "bits.py printed one run name twice"
    differ = [name for name in reference if printed.get(name) != reference[name]]
    extra = [name for name in printed if name not in reference]
    assert not differ and not extra, (
        f"{len(differ)} run(s) differ from the reference or are missing:\n"
        + "\n".join(differ) + f"\n{len(extra)} run(s) not in it:\n" + "\n".join(extra))
