"""ESP source generators for the build and serve workloads.

The three build shapes are those of the paper's Figure 5 (ping-pong
latency, one-way windowed bandwidth, bidirectional bandwidth), each
with a checksum loop per message standing in for the firmware's
per-packet work, and a final ``print`` of the checksum so the native
engine and the AST walker can be compared on what the program prints.

The serve programs are relay pipelines whose local names, layout and
comments can be varied without changing the program (an alpha-renamed
or reformatted resubmission), or whose payload constant can be varied
to make a program never seen before with the same state space.
"""

from __future__ import annotations

_SUM = ("$s = 0; $w = 0; while (w < {words}) {{ "
        "s = (s + (({x} + w) * 31 & 65535)) % 65521; w = w + 1; }}")


def pingpong(rounds: int, words: int) -> str:
    return f"""
channel pingC: int
channel pongC: int

process client {{
    $n = 0;
    $last = 0;
    while (n < {rounds}) {{
        {_SUM.format(words=words, x="(n + last)")}
        out( pingC, s);
        in( pongC, $r);
        last = r;
        n = n + 1;
    }}
    print(last);
}}

process server {{
    $n = 0;
    while (n < {rounds}) {{
        in( pingC, $p);
        {_SUM.format(words=words, x="p")}
        out( pongC, s);
        n = n + 1;
    }}
}}
"""


def bandwidth(messages: int, window: int, words: int) -> str:
    return f"""
channel dataC: int
channel creditC: int

process sender {{
    $credits = {window};
    $sent = 0;
    $acked = 0;
    $chk = 0;
    while (acked < {messages}) {{
        alt {{
            case( sent < {messages} && credits > 0, out( dataC, chk)) {{
                credits = credits - 1;
                sent = sent + 1;
                {_SUM.format(words=words, x="(sent + chk)")}
                chk = s;
            }}
            case( in( creditC, $c)) {{
                credits = credits + 1;
                acked = acked + 1;
            }}
        }}
    }}
    print(chk);
}}

process receiver {{
    $n = 0;
    $total = 0;
    while (n < {messages}) {{
        in( dataC, $d);
        {_SUM.format(words=words, x="d")}
        total = (total + s) % 65521;
        out( creditC, 1);
        n = n + 1;
    }}
    print(total);
}}
"""


def bidirectional(messages: int, words: int) -> str:
    def side(me: int, mine: str, theirs: str) -> str:
        return f"""
process side{me} {{
    $sent = 0;
    $got = 0;
    $total = 0;
    while (sent < {messages} || got < {messages}) {{
        alt {{
            case( sent < {messages}, out( {mine}, sent)) {{
                sent = sent + 1;
            }}
            case( got < {messages}, in( {theirs}, $d)) {{
                got = got + 1;
                {_SUM.format(words=words, x="d")}
                total = (total + s) % 65521;
            }}
        }}
    }}
    print(total);
}}
"""
    return ("channel abC: int\nchannel baC: int\n"
            + side(0, "abC", "baC") + side(1, "baC", "abC"))


# shape -> (source builder over (messages, words), transfers per message)
BUILD_SHAPES = {
    "pingpong": (pingpong, 2),
    "bandwidth": (lambda messages, words: bandwidth(messages, 8, words), 2),
    "bidirectional": (bidirectional, 2),
}


def relay(stages: int, messages: int, payload: int = 1,
          expect: int | None = None, names: str = "",
          layout: int = 0) -> str:
    """A ``source -> relay* -> sink`` pipeline carrying ``messages``
    copies of ``payload``; the sink asserts each equals ``expect``
    (default ``payload``, so the assertion holds).  ``names`` suffixes
    every local variable and ``layout`` picks indentation and comments;
    neither changes the program, while ``payload`` does (without
    changing its state space)."""
    expect = payload if expect is None else expect
    ind = " " * (2 + 2 * (layout % 3))
    note = f"// layout {layout}\n" if layout else ""
    x, n, v = f"x{names}", f"n{names}", f"v{names}"
    lines = [note + f"channel c{i}: int" for i in range(stages + 1)]
    lines.append("process source {")
    lines.append(f"{ind}${n} = 0;")
    lines.append(f"{ind}while ({n} < {messages}) {{ out( c0, {payload}); "
                 f"{n} = {n} + 1; }}")
    lines.append("}")
    for i in range(stages):
        lines.append(f"process relay{i} {{")
        if layout:
            lines.append(f"{ind}/* stage {i} of {stages} */")
        lines.append(f"{ind}while (true) {{ in( c{i}, ${x}); "
                     f"out( c{i + 1}, {x}); }}")
        lines.append("}")
    lines.append("process sink {")
    lines.append(f"{ind}${n} = 0;")
    lines.append(f"{ind}while ({n} < {messages}) {{")
    lines.append(f"{ind}{ind}in( c{stages}, ${v});")
    lines.append(f"{ind}{ind}assert( {v} == {expect});")
    lines.append(f"{ind}{ind}{n} = {n} + 1;")
    lines.append(f"{ind}}}")
    lines.append("}")
    return "\n".join(lines) + "\n"
