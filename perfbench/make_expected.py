"""Write expected.json: the verdict digests that every run is checked against.

    python3 perfbench/make_expected.py

Run it from the root of a source checkout at a commit whose tests pass; it
records the exit code and output digest of every fixtures_cli call and the
output digests of one bos_repeated pass.  Only the fixed-input workloads
have entries: random_grid is checked by cross-checks instead.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> None:
    out = {"fixtures_cli": {}, "bos_repeated": {}}
    for name in workloads.SMALL_FIXTURES:
        for form in workloads.CLI_FORMS:
            code, text = workloads.run_cli(workloads.cli_argv(name, form))
            out["fixtures_cli"]["%s|%s" % (name, form)] = {
                "exit": code,
                "digest": workloads.digest(workloads.cli_verdict(form, code, text))}
    bos = workloads.BosRepeated({"bos_repeated": {}})
    texts = bos.setup(0)
    for c in bos.calls(texts):
        view = bos.view(c, texts, c.thunk())
        out["bos_repeated"]["%s %s" % (c.game, c.op)] = workloads.digest(view)
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
