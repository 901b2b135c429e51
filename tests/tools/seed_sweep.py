"""Run hypothesis tests in process under many fixed seeds and report the
seeds each one fails on. From the repository root:

    python tests/tools/seed_sweep.py --seeds 1000 \
        tests/test_execution_cache.py::test_block_root_matches_a_root_after_every_transaction \
        tests/test_trace_rows.py

A test is named as `path::name` (or `path::Class::name`); a path alone
names every hypothesis test at the top level of that file. Each test runs
under `hypothesis.seed(s)` for s in 0..N-1, with the example database off,
so no run replays an example an earlier one saved. A test that takes pytest
fixtures cannot run here and is reported as failing on every seed. The
sweep is not part of the tier-1 suite: 1000 seeds of one test can take
minutes. The exit status is 1 if any test failed on any seed.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

import hypothesis
from hypothesis import Verbosity, settings
from hypothesis.internal.detection import is_hypothesis_test

TESTS = Path(__file__).resolve().parent.parent


def _tests(spec: str) -> list[tuple[str, object]]:
    """(name, callable) for each test `spec` names."""
    path, *names = spec.split("::")
    module = importlib.import_module(Path(path).stem)
    if not names:
        return [(f"{path}::{name}", test) for name, test in vars(module).items()
                if name.startswith("test") and is_hypothesis_test(test)]
    test = module
    for name in names:
        test = getattr(test, name)
        if isinstance(test, type):
            test = test()  # a test class: its methods run bound to one instance
    if not is_hypothesis_test(test):
        raise SystemExit(f"{spec}: not a hypothesis test")
    return [(spec, test)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=100, help="N: run seeds 0..N-1 (default 100)")
    p.add_argument("tests", nargs="+", help="path::name, or a path for all its hypothesis tests")
    args = p.parse_args(argv)
    # loaded before any test module is imported, so that the settings a
    # test declares inherit these
    settings.register_profile("seed-sweep", database=None, verbosity=Verbosity.quiet,
                              print_blob=False)
    settings.load_profile("seed-sweep")
    sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

    failed_any = False
    for spec in args.tests:
        for name, test in _tests(spec):
            began, failures = time.monotonic(), []
            for s in range(args.seeds):
                try:
                    hypothesis.seed(s)(test)()
                except Exception as exc:  # any failure is a finding; the sweep goes on
                    first = (str(exc).strip().splitlines() or [""])[0]
                    failures.append((s, f"{type(exc).__name__}: {first}"))
            failed_any |= bool(failures)
            print(f"{name}: {len(failures)} of {args.seeds} seeds failed "
                  f"({time.monotonic() - began:.1f} s)", flush=True)
            for s, what in failures:
                print(f"  seed {s}: {what}", flush=True)
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
