"""Run the ``hdnorm`` command the way its console script does.

    python3 perfbench/cli_launcher.py [--trace SPANS.json] -- <hdnorm args>

Without ``--trace`` this is exactly the installed ``hdnorm`` entry point,
run from the source tree. With it, the launcher times ``import
hdnorm.cli``, installs the benchmark's span wrappers, times ``main`` and
writes the spans as JSON before exiting with main's code.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _split(argv):
    trace = None
    if argv[:1] == ["--trace"]:
        trace, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    return trace, argv


def main() -> int:
    trace, argv = _split(sys.argv[1:])
    if trace is None:
        from hdnorm.cli import main as cli_main
        return cli_main(argv)

    import json

    import spans

    rec = spans.Recorder()
    with rec.span("cli.import"):
        from hdnorm.cli import main as cli_main
    spans.install(rec)
    with rec.span("cli.main"):
        code = cli_main(argv)
    with open(trace, "w") as f:
        json.dump(rec.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
