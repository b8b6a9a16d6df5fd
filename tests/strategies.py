"""Hypothesis strategies for random valid interleavings and traces.

Interleavings are generated the way an execution would produce them: spawn
allocates a fresh child pid, send enqueues at the target's mailbox, and a
receive consumes the oldest mailbox message matching its constraint. The
four validity conditions then hold by construction, which the tests assert
rather than assume.
"""

from hypothesis import strategies as st

from racetrace import (
    Atom,
    Clause,
    Cmp,
    Constraint,
    Event,
    GTrue,
    Int,
    Interleaving,
    Rec,
    Send,
    Spawn,
    Tup,
    Var,
    match,
    tr,
)

CS_ANY = Constraint("csa", (Clause(Tup((Atom("val"), Var("M"))), GTrue()),))
# CS_ANY's clauses under another id: receives that share match answers
CS_ANY_B = Constraint("csb", CS_ANY.clauses)
# CS_ANY's pattern under a guard: receives that must not share them
CS_POS = Constraint(
    "csp", (Clause(Tup((Atom("val"), Var("M"))), Cmp(">", Var("M"), Int(0))),)
)
VALUES = [Tup((Atom("val"), Int(n))) for n in (0, 1, 2)]


@st.composite
def interleavings(draw, max_events: int = 8) -> Interleaving:
    pids = ["p1"]
    mailboxes: dict[str, list] = {"p1": []}
    spawn_count: dict[str, int] = {}
    tag_count: dict[str, int] = {}
    events: list[Event] = []

    n = draw(st.integers(min_value=0, max_value=max_events))
    for _ in range(n):
        options = []
        if len(pids) < 5:
            options.append("spawn")
        options.append("send")
        receivable = [
            (p, cs)
            for p in pids
            for cs in (CS_ANY, CS_ANY_B, CS_POS)
            if any(match(v, cs) for _, v in mailboxes[p])
        ]
        if receivable:
            options.append("rec")
        kind = draw(st.sampled_from(options))
        if kind == "spawn":
            parent = draw(st.sampled_from(pids))
            spawn_count[parent] = spawn_count.get(parent, 0) + 1
            child = f"{parent}.{spawn_count[parent]}"
            pids.append(child)
            mailboxes[child] = []
            events.append(Event(parent, Spawn(child)))
        elif kind == "send":
            sender = draw(st.sampled_from(pids))
            target = draw(st.sampled_from(pids))
            value = draw(st.sampled_from(VALUES))
            tag_count[sender] = tag_count.get(sender, 0) + 1
            tag = f"{sender}.{tag_count[sender]}"
            mailboxes[target].append((tag, value))
            events.append(Event(sender, Send(tag, value, target)))
        else:
            p, cs = draw(st.sampled_from(receivable))
            slot = next(i for i, (_, v) in enumerate(mailboxes[p]) if match(v, cs))
            tag, _ = mailboxes[p].pop(slot)
            events.append(Event(p, Rec(tag, cs)))
    return Interleaving("p1", tuple(events))


@st.composite
def traces(draw, max_events: int = 8):
    return tr(draw(interleavings(max_events=max_events)))


# Receive statements of a generated collector: unguarded, a guarded clause
# ahead of a catch-all, a guarded clause alone (it may block), and a reply
# to main through the pid literal <p1>.
COLLECTOR_RECEIVES = {
    "any": "receive { {val,M} -> M }",
    "guarded": "receive { {val,M} when M > {k} -> {high,M}; {val,M} -> {low,M} }",
    "only": "receive { {val,M} when M =< {k} -> M }",
    "reply": "receive { {val,M} -> send {ack,M} to <p1> }",
}


@st.composite
def programs(draw) -> str:
    """The text of a small actor program. main spawns a collector that makes
    1-4 receives, up to 2 proxies that each forward one message to the
    collector, and 1-3 senders that each send one {val,N} to the collector
    or a proxy; at most one collector receive replies to <p1>, and main
    then ends by waiting for the reply. Small enough that ``enumerate_executions`` runs
    every schedule in about a second."""
    kinds = draw(st.lists(st.sampled_from(sorted(COLLECTOR_RECEIVES)), min_size=1, max_size=4))
    if "reply" in kinds:  # one reply at most
        first = kinds.index("reply") + 1
        kinds[first:] = ["any" if k == "reply" else k for k in kinds[first:]]
    receives = [
        COLLECTOR_RECEIVES[kind].replace("{k}", str(draw(st.integers(1, 2))))
        for kind in kinds
    ]
    proxies = [f"P{i}" for i in range(1, draw(st.integers(0, 2)) + 1)]
    senders = draw(
        st.lists(
            st.tuples(st.sampled_from(["C"] + proxies), st.integers(1, 3)),
            min_size=1,
            max_size=3 if len(proxies) < 2 else 2,
        )
    )
    main = ["C = spawn collector()"]
    main += [f"{p} = spawn proxy(C)" for p in proxies]
    main += [f"spawn gen({target}, {n})" for target, n in senders]
    if "reply" in kinds:
        main.append("receive { {ack,X} -> X }")
    return (
        "program { main main\n"
        f"  def main() {{ {'; '.join(main)} }}\n"
        "  def gen(T, N) { send {val,N} to T }\n"
        "  def proxy(C) { receive { {val,M} -> send {val,M} to C } }\n"
        f"  def collector() {{ {'; '.join(receives)} }} }}\n"
    )


@st.composite
def spawn_trees(draw) -> str:
    """The text of a program whose processes only spawn: main spawns 10-12
    children, so ``p1.10`` meets ``p1.2``, each child up to 2 and each
    grandchild up to 1, so subtrees nest three levels deep. Every node has
    a function of its own, named by its path."""
    defs: list[str] = []

    def node(name: str, depth: int) -> str:
        fanout = draw(st.integers(10, 12) if depth == 0 else st.integers(0, 3 - depth))
        spawns = "; ".join(f"spawn {node(f'{name}_{k}', depth + 1)}()" for k in range(fanout))
        defs.append(f"  def {name}() {{ {spawns} }}")
        return name

    node("n", 0)
    return "program { main n\n" + "\n".join(defs) + " }\n"
