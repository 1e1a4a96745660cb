"""The hybrid cut finder surviving a coordinator crash (§3.4).

The exact algorithm gives the freshest cuts but needs the precedence
graph; keeping the graph only in coordinator memory removes the durable
write bottleneck — at the price that a coordinator crash loses it.
The hybrid finder runs the approximate (min-version) algorithm in
parallel as the fault-tolerant fallback: after a crash, the exact pass
stalls, the approximate floor keeps advancing, and once it passes the
lost subgraph the exact pass resumes at full precision.

Run:  python examples/finder_failover.py
"""

from repro.core import InMemoryStateObject
from repro.core.finder import HybridDprFinder
from repro.core.libdpr import DprClientSession, DprServer


def main():
    finder = HybridDprFinder()
    shards = {name: InMemoryStateObject(name) for name in ("A", "B")}
    servers = {name: DprServer(shard, finder)
               for name, shard in shards.items()}
    session = DprClientSession("app")

    def do(shard, *ops):
        header = session.prepare_batch(shard, len(ops))
        return session.absorb_response(
            servers[shard].process_batch(header, list(ops)))

    def work_and_commit(rounds, laggard_rule=False):
        for index in range(rounds):
            target = "A" if index % 2 == 0 else "B"
            do(target, ("incr", "counter"))
        # §3.4: a checkpoint may first jump a lagging shard to Vmax.
        vmax = finder.max_version() if laggard_rule else 0
        for server in servers.values():
            server.commit(vmax)

    # Normal operation: the in-memory graph gives exact cuts.  Shard A
    # is busier and checkpoints more often, so its version runs ahead —
    # precisely the situation where the exact graph beats the
    # min-version rule.
    work_and_commit(4)
    for _extra in range(4):
        do("A", ("incr", "hot"))
        servers["A"].commit()
    cut = finder.tick()
    print(f"healthy coordinator:   cut={cut} (exact: A leads B)")

    # The coordinator crashes; its in-memory graph is gone.  The crash
    # horizon is A's high version; the approximate floor is B's low one.
    finder.crash_coordinator()
    print("coordinator crashed — precedence graph lost")

    # The restarted coordinator cannot trust anything referencing the
    # lost subgraph: its cut is frozen until the approximate Vmin
    # passes the crash horizon (B is still at version 1).
    stalled = finder.tick()
    print(f"right after restart:   cut={stalled} "
          f"(frozen; recovered={finder.recovered})")
    assert not finder.recovered

    # Ordinary cross-shard traffic heals it: the session's Vs drags B's
    # version up past the horizon at its next commits.
    work_and_commit(4)

    # The approximate min-version keeps advancing as shards commit and
    # fast-forward; once it passes the crash horizon, exact resumes.
    for _round in range(4):
        work_and_commit(2, laggard_rule=True)
        cut = finder.tick()
        print(f"  catching up:         cut={cut} recovered={finder.recovered}")
        if finder.recovered:
            break
    assert finder.recovered
    session.refresh_commit(finder.current_cut())
    print(f"exact precision restored; session committed prefix = "
          f"{session.committed_seqno}/{session.session.last_issued_seqno}")


if __name__ == "__main__":
    main()
