"""Self-tests of the benchmark: the exact checker, the fingerprint and the
tracing wrappers.  Run with ``python3 -m pytest perfbench -q``."""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (WORKLOADS, exact_gain_error, integer_charpoly,  # noqa: E402
                       integer_family, pass_fingerprint, run_item)


def _integer_problem(n):
    from poleplace import exactring

    A, B = integer_family(n)
    cp = integer_charpoly(range(-1, -n - 1, -1))
    return A, B, exactring.ratio(exactring.place_exact(A, B, cp))


def test_integer_family_matches_the_package():
    from poleplace import bench

    for n in (3, 12, 30):
        sys_ = bench.gen_integer_example(n)
        assert integer_family(n) == (sys_.A.astype(int).tolist(),
                                     sys_.B.astype(int).tolist())


def test_exact_checker_accepts_oracle_gain_and_rejects_perturbation():
    n = 12
    A, B, gain = _integer_problem(n)
    poles = range(-1, -n - 1, -1)
    assert exact_gain_error(A, B, gain, poles) is None
    for i in (0, n - 1):
        bad = list(gain)
        bad[i] *= 1 + Fraction(1, 10**9)
        assert exact_gain_error(A, B, bad, poles) is not None


def _one_pass(name, seed):
    main, workdir, items = run.prepare(WORKLOADS[name])
    outputs = {}
    try:
        passes = run.run_passes(main, items, random.Random(seed), 0.0, outputs)
    finally:
        run.shutil.rmtree(workdir)
    return items, passes, outputs


def test_pass_fingerprint_is_reproducible_across_seeds():
    _, first, _ = _one_pass("closed-loop", 1)
    _, second, _ = _one_pass("closed-loop", 2)
    assert pass_fingerprint(first[0].digests) == pass_fingerprint(second[0].digests)


def test_checks_pass_on_one_closed_loop_pass():
    workload = WORKLOADS["closed-loop"]
    items, passes, outputs = _one_pass("closed-loop", 3)
    failed, prints, problems = run.check_outputs(workload, items, passes, passes, outputs)
    assert (failed, len(prints), problems) == (0, 1, [])


def _public_bindings():
    import poleplace
    from poleplace import placement, sim

    spaces = [poleplace] + [getattr(poleplace, m) for m in
                            ("linalg", "placement", "bench", "exactring", "sim",
                             "cli", "algebroid")]
    names = {(ns.__name__, k): v for ns in spaces for k, v in vars(ns).items()
             if not k.startswith("__")}
    names.update({("ALGORITHMS", k): v for k, v in placement.ALGORITHMS.items()})
    names[("Trace", "to_csv")] = sim.Trace.to_csv
    return names


def test_tracer_wraps_once_and_restores_every_public_name():
    before = _public_bindings()
    tr = Tracer()
    tr.install()
    try:
        during = _public_bindings()
        main, workdir, items = run.prepare(WORKLOADS["study-integer"])
        run.shutil.rmtree(workdir)
        item = next(i for i in items if i.key == "n=08 ackermann")
        run_item(main, item)
    finally:
        tr.restore()
    after = _public_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    changed = {k for k in before if during[k] is not before[k]}
    assert ("poleplace.bench", "eigenvalues") in changed
    assert ("poleplace.sim", "feedback_eval") in changed
    assert ("poleplace.placement", "poly_from_roots") in changed
    # One wrapper per function, whatever the number of names it has.
    eig = during[("poleplace.linalg", "eigenvalues")]
    assert during[("poleplace.bench", "eigenvalues")] is eig
    acc, _ = tr.totals()
    placements = acc["placement.ackermann"][0]
    evaluated = acc.get("bench.evaluate_placement", (0,))[0]
    assert placements == 4 and evaluated + tr.typed_errors == placements
    assert acc.get("linalg.eigenvalues", (0,))[0] == evaluated


def test_reference_copy_is_unchanged():
    h = hashlib.sha256()
    for f in sorted((HERE / "reference" / "poleplace_ref").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    assert h.hexdigest() == (
        "85fca548e948d4e08e3034ced501939e7046e935c8f403c1e866a099969b2a38")
