"""The three document writers as each once stated the layout on its own:
the head and entry lines joined with newlines, then `` }\\n``, then the
constraints block. The package writes every document through one
``traces.write_document``; the tests compare its bytes with these.
"""

from operator import attrgetter

from racetrace.simulator import Program, _render_stmt
from racetrace.terms import Constraint
from racetrace.traces import Interleaving, Trace, _constraint_table, render_action


def _render_constraints_block(table: dict[str, Constraint]) -> str:
    if not table:
        return ""
    lines = [cs.text for cs in sorted(table.values(), key=attrgetter("sort_key"))]
    return "constraints { " + "\n  ".join(lines) + " }\n"


def serialize_trace(t: Trace) -> str:
    lines = [f"trace {{ initial: {t.initial}"]
    for pid, seq in t.procs.items():
        body = ", ".join(render_action(a) for a in seq) if seq else "ε"
        lines.append(f"  {pid}: {body}")
    text = "\n".join(lines) + " }\n"
    table = _constraint_table(a for seq in t.procs.values() for a in seq)
    return text + _render_constraints_block(table)


def serialize_interleaving(s: Interleaving) -> str:
    lines = [f"interleaving {{ initial: {s.initial}"]
    for ev in s.events:
        lines.append(f"  {ev.pid}: {render_action(ev.action)}")
    text = "\n".join(lines) + " }\n"
    table = _constraint_table(ev.action for ev in s.events)
    return text + _render_constraints_block(table)


def serialize_program(program: Program) -> str:
    lines = [f"program {{ main {program.main}"]
    for fdef in program.defs.values():
        params = ", ".join(fdef.params)
        body = "; ".join(_render_stmt(s) for s in fdef.body)
        lines.append(f"  def {fdef.name}({params}) {{ {body} }}".replace("{  }", "{ }"))
    return "\n".join(lines) + " }\n"
