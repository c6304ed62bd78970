#!/usr/bin/env python3
"""Rewrite the committed result goldens under tests/golden/.

The Golden.* tests (tests/test_golden.cpp) diff each grid's results JSON
against tests/golden/<name>.json. On a mismatch or a missing file a test
writes the document it produced to golden_actual/<name>.json in its working
directory. This script builds attain_tests, runs Golden.* in a fresh
temporary directory, copies every document the run wrote over its golden,
and re-runs Golden.* to confirm the tree now passes.

This is the only sanctioned way to change tests/golden/. Name every use of
it, and the reason the results moved, in CHANGES.md.

usage: tools/regen_goldens.py [--build-dir DIR]
"""
import argparse
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO / "tests" / "golden"
FILTER = "--gtest_filter=Golden.*"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(REPO / "build"),
                        help="configured CMake build tree (default: build/)")
    args = parser.parse_args()

    build = pathlib.Path(args.build_dir).resolve()
    subprocess.run(["cmake", "--build", str(build), "--parallel", "--target", "attain_tests"],
                   check=True)
    binary = build / "tests" / "attain_tests"

    with tempfile.TemporaryDirectory(prefix="goldens-") as work:
        subprocess.run([str(binary), FILTER], cwd=work, stdout=subprocess.DEVNULL)
        actual = pathlib.Path(work) / "golden_actual"
        written = sorted(actual.glob("*.json")) if actual.is_dir() else []
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for doc in written:
            shutil.copyfile(doc, GOLDEN_DIR / doc.name)
            print(f"rewrote tests/golden/{doc.name}")
    if not written:
        print("goldens already match; nothing rewritten")

    with tempfile.TemporaryDirectory(prefix="goldens-") as work:
        check = subprocess.run([str(binary), FILTER], cwd=work, stdout=subprocess.DEVNULL)
    if check.returncode != 0:
        print("Golden.* still fails after regeneration: the grids are not deterministic",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
