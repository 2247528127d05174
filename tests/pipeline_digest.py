"""SHA-256 digests of the fixed-seed CLI pipeline of one checkout.

Usage:

    OPENBLAS_NUM_THREADS=1 python tests/pipeline_digest.py <checkout>

Runs the checkout's own ``test_acceptance._run_pipeline`` and its
``config-reference`` command in a temporary directory, then prints one
``sha256 path`` line for each of the 13 files they write: the 11 files
the pipeline checks, the registration-net checkpoint ``reg.lmf1`` and the
configuration document.  The command output goes to stderr.  Running it
on two checkouts with the same BLAS thread count shows whether a change
moved any output bit.
"""

import contextlib
import hashlib
import pathlib
import sys
import tempfile


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: pipeline_digest.py <checkout>", file=sys.stderr)
        return 2
    checkout = pathlib.Path(args[0]).resolve()
    # the checkout's package and tests shadow any other copy on the path
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
    from test_acceptance import _run_pipeline

    from cardiomotion.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp) / "run"
        with contextlib.redirect_stdout(sys.stderr):
            files = _run_pipeline(root) + ["reg.lmf1", "config.json"]
            if cli_main(["config-reference", "--out", str(root / "config.json")]) != 0:
                return 1
        for rel in files:
            print(hashlib.sha256((root / rel).read_bytes()).hexdigest(), rel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
