"""The set-up every workload runs, and its time in a fresh process.

    PYTHONPATH=src python3 bench/setup_probe.py 9/10

`contexts` builds the algebra, constructs UqActions (which runs the
pairing-table identity suite), the GNS context and the transform, and
makes the first Haar call, which solves the Haar table.  The workloads
call it for their own set-up; run as a script, this file prints the time
of importing qsphere plus one `contexts` call, in seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from qsphere import berezin, gns, session, uq_actions  # noqa: E402


def contexts(cfg):
    """Algebra, actions, GNS context and transform for one configuration,
    with the Haar table solved."""
    alg = cfg.build_algebra()
    actions = uq_actions.UqActions(alg)
    ctx = gns.GnsContext(alg, actions)
    ber = berezin.Berezin(ctx)
    alg.haar(alg.sphere_A)
    return alg, actions, ctx, ber


def main() -> None:
    contexts(session.SessionConfig(q_text=sys.argv[1]))
    print(repr(time.perf_counter() - T0))


if __name__ == "__main__":
    main()
