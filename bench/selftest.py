"""Self-test of the benchmark's checks: each must accept the program's
output and reject a corrupted copy of it.

    PYTHONPATH=src python3 bench/selftest.py

Corruptions: one elementary divisor off by one, one dropped locus face,
one dropped polytope vertex, a valuation off by one, a retraction
coordinate off by one, and one changed byte of every well-formed CLI
output.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cli_batch  # noqa: E402
import workloads  # noqa: E402
from worker import Program, build  # noqa: E402


def corruptions(nx, case, out):
    """Corrupted variants of one output, by what the case computes."""
    kind = case.label.split("/")[0]
    ED = nx.lattices.ElementaryDivisors
    if kind == "smith" and out.divisors:
        bumped = out.divisors[:-1] + (out.divisors[-1] + 1,)
        yield "divisor off by one", ED(bumped, out.free_rank)
    elif kind == "min_locus":
        m_star, faces = out
        yield "dropped locus face", (m_star, nx.tropical.FaceComplex(faces.faces[1:]))
    elif kind == "polytope_vertices":
        yield "dropped vertex", out[1:]
    elif kind == "retract":
        yield "coordinate off by one", (out[0] + 1,) + out[1:]
    elif isinstance(out, nx.values.Val) and not out.is_inf:
        yield "value off by one", out + 1


def changed_byte(stdout):
    """Change the first digit (or, without digits, the first letter)."""
    for i, ch in enumerate(stdout):
        if ch.isdigit():
            return stdout[:i] + str((int(ch) + 1) % 10) + stdout[i + 1:]
    for i, ch in enumerate(stdout):
        if ch.isalpha():
            return stdout[:i] + ("x" if ch != "x" else "y") + stdout[i + 1:]
    return stdout + " "


def main():
    nx = Program()
    problems, tried = [], 0
    for plan_fn in (workloads.plan_lattice, workloads.plan_kahler, workloads.plan_skeleton):
        plan = plan_fn(1)
        for case, thunk in zip(plan.cases, build(plan, nx)):
            out = thunk()
            if case.check(out):
                problems.append(f"{case.label}: check rejects the program's output")
            for what, bad in corruptions(nx, case, out):
                tried += 1
                if not case.check(bad):
                    problems.append(f"{case.label}: check accepts a {what}")

    plan = cli_batch.plan_cli(1)
    fresh = cli_batch.plan_cli(1)  # unused checks: they have not seen any output yet
    try:
        for case, again, thunk in zip(plan.cases, fresh.cases, build(plan, nx)):
            try:
                code, stdout, stderr = thunk()
            except Exception as exc:
                if case.fault != type(exc).__name__:
                    problems.append(f"{case.label}: unexpected {type(exc).__name__}")
                continue
            if case.check((code, stdout, stderr)):
                problems.append(f"{case.label}: check rejects the program's output")
            if case.label.startswith(("malformed/", "fault/")):
                continue
            tried += 2
            if not case.check((code, changed_byte(stdout), stderr)):
                problems.append(f"{case.label}: repeat check accepts a changed byte")
            if not again.check((code, changed_byte(stdout), stderr)):
                problems.append(f"{case.label}: reference check accepts a changed byte")
    finally:
        plan.cleanup()
        fresh.cleanup()

    for p in problems:
        print("FAIL", p)
    print(f"{tried} corruptions tried, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
