"""Program families whose number of complete traces is known in closed form.

A trace records each process's actions. In every family below the senders'
actions are fixed, and the collector's receives are the only choice, so a
trace is one order in which the collector consumes the messages, and the
counts below count those orders.

If ``explore`` returns that many traces, and they are pairwise distinct,
valid, and complete runs of the program, it found them all: no exhaustive
oracle is needed, so the check reaches sizes the oracle cannot.

Only the standard library is imported, so CI can build the programs
without the package installed.
"""

from math import factorial


def _program(k: int, sends: str, receives: list[str]) -> str:
    """main spawns the collector C, then k senders, each given C and its
    number N (from 1), that run ``sends``; the collector runs ``receives``."""
    spawns = "".join(f"; spawn sender(C, {n})" for n in range(1, k + 1))
    return (
        "program { main main\n"
        f"  def main() {{ C = spawn collector(){spawns} }}\n"
        f"  def sender(C, N) {{ {sends} }}\n"
        f"  def collector() {{ {'; '.join(receives)} }} }}\n"
    )


def gencoll(n: int) -> str:
    """n generators each send {val,N} to a collector that takes any message
    n times."""
    return fanin(n, 1)


def gencoll_count(n: int) -> int:
    """Every order of the n messages: n!."""
    return factorial(n)


def fanin(k: int, m: int) -> str:
    """k senders each send m messages {val,N} to a collector that takes any
    message k·m times."""
    sends = "; ".join("send {val,N} to C" for _ in range(m))
    return _program(k, sends, ["receive { {val,X} -> X }"] * (k * m))


def fanin_count(k: int, m: int) -> int:
    """Each sender's messages are consumed in the order it sent them, so an
    order is an interleaving of k sequences of m: the multinomial
    (k·m)! / (m!)^k."""
    return factorial(k * m) // factorial(m) ** k


def selective(k: int) -> str:
    """k senders each send {b,N} and then {a,N} to a collector that selects
    k messages {a,X} and then k messages {b,X}."""
    sends = "send {b,N} to C; send {a,N} to C"
    receives = ["receive { {a,X} -> X }"] * k + ["receive { {b,X} -> X }"] * k
    return _program(k, sends, receives)


def selective_count(k: int) -> int:
    """The a receives skip every b, so they take the k a messages in any of
    k! orders; all the b messages are then sent and waiting, and the b
    receives take them in any of k! orders: (k!)²."""
    return factorial(k) ** 2


def b_then_any(k: int) -> str:
    """k senders each send {a,N} and then {b,N} to a collector that takes
    one message {b,X} and then any message, 2k−1 times."""
    sends = "send {a,N} to C; send {b,N} to C"
    receives = ["receive { {b,X} -> X }"] + ["receive { {_,X} -> X }"] * (2 * k - 1)
    return _program(k, sends, receives)


def b_then_any_count(k: int) -> int:
    """The first receive takes the first b sent, say b_j: k choices. Every
    later receive takes the oldest message left, so the other 2k−1 messages
    are taken in the order S they were sent. S can occur iff each a_i
    precedes b_i and a_j precedes every b (a_j precedes b_j, the first b).
    Count S by the m a's that precede a_j: no b may, so they come first, in
    one of (k−1)!/(k−1−m)! orders; after a_j the other 2k−2−m messages go
    in any order that keeps each of the k−1−m pairs left a before b:
    (2k−2−m)!/2^(k−1−m). In all

        k·Σ_{m=0}^{k−1} (k−1)!/(k−1−m)! · (2k−2−m)!/2^(k−1−m),

    which with l = k−1−m is k·((k−1)!)²·Σ_{l=0}^{k−1} C(k−1+l, l)/2^l, and
    Σ_{l=0}^{n} C(n+l, l)/2^l = 2^n gives 2^(k−1)·k!·(k−1)!."""
    return 2 ** (k - 1) * factorial(k) * factorial(k - 1)
