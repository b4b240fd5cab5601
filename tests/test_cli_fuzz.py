"""Seeded CLI fuzzing: every argv drawn from the parser's grammar answers or refuses cleanly.

The CLI's contract is that each input answers (exit 0), is refused as malformed
(exit 2) or as too large (exit 3), in bounded time. The argvs come from one
fixed seed and cover every verb with malformed partitions, ranks from -2 to
10^12, one to three factors, weight entries up to 50 and several box caps.
Each runs through ``cli.main`` in process under a SIGALRM deadline far above
the milliseconds a bounded answer takes. The TSV form of each answer must hold
the rows that `test_cli.TSV_CASES` reads off its JSON form.
"""

import json
import random
import signal

import pytest

from lrwkit.cli import main
from test_cli import TSV_CASES

SEED = 20261021
COUNT = 300
DEADLINE_S = 20.0

MAX_BOXES = (-1, 0, 5, 10, 14, 20)
MALFORMED = ("-", "", "1,,2", "1.5", "-1", "a", "2,-1", "1,3", "100000000000", "3,2,1,")
FAMILIES = "ABCDabcd"


def _partition(rng):
    if rng.random() < 0.2:
        return rng.choice(MALFORMED)
    parts, left = [], rng.randint(0, 12)
    while left:
        part = rng.randint(1, min(left, parts[-1] if parts else left))
        parts.append(part)
        left -= part
    return ",".join(map(str, parts)) or "-"


def _rank(rng):
    roll = rng.random()
    if roll < 0.75:
        return rng.randint(-2, 12)
    if roll < 0.9:
        return rng.randint(13, 60)
    return rng.choice((200, 1000, 10**6, 10**12))


def _vector(rng, length, top):
    return ",".join(str(rng.randint(-1, top) if rng.random() < 0.1 else rng.randint(0, top))
                    for _ in range(length))


def _weight(rng, rank):
    length = rng.randint(0, min(rank, 8)) if rank > 0 else rng.randint(0, 2)
    if rng.random() < 0.1:
        return f"{_vector(rng, length, 50)}@{rank}"  # no "rank="
    return f"{_vector(rng, length, 50)}@rank={rank}"


def _factor(rng):
    if rng.random() < 0.1:
        return rng.choice(("1", "1,2,3", "a,1", "1.5,2", ""))
    return f"{rng.randint(-1, 6)},{rng.randint(-1, 8)}"


def _cone_target(rng, family, rank):
    """An --alpha or --weight option, often a sum of the roots e_k + e_l with large amounts."""
    length = rank if 0 < rank <= 2000 else rng.randint(1, 4)
    if rng.random() < 0.1:
        length += rng.choice((-1, 1))
    if rng.random() < 0.5:
        return f"--weight={_vector(rng, length, 50)}"
    if rng.random() < 0.5:
        return f"--alpha={_vector(rng, length, 10 ** rng.randint(1, 6))}"
    # orthogonal coordinates e_1..e_m below the tail, then partial sums
    # (the tail halved on C and D), as the alpha of a likely cone member
    eps = [0] * length
    tail = 2 if family in "Dd" else 1
    for _ in range(rng.randint(0, 6)):
        if length > tail + 1:
            k, l = sorted(rng.sample(range(length - tail), 2))
            amount = rng.randint(1, 10 ** rng.randint(0, 6))
            eps[k] += amount
            eps[l] += amount
    coords, total = [], 0
    for e in eps:
        total += e
        coords.append(total)
    return f"--alpha={','.join(map(str, coords))}"


def _argv(rng):
    verb = rng.choice(
        ("part", "schur", "lr", "branch", "dcoef", "wdecomp", "wtensor", "fermionic",
         "roots", "roots", "roots", "verify")
    )
    if verb == "part":
        op = rng.choice(("conjugate", "size", "contains", "toweight", "fromweight"))
        if op == "contains":
            return [verb, op, _partition(rng), _partition(rng)]
        if op == "toweight":
            return [verb, op, _partition(rng), str(_rank(rng))]
        if op == "fromweight":
            return [verb, op, _weight(rng, _rank(rng))]
        return [verb, op, _partition(rng)]
    if verb == "schur":
        op = rng.choice(("mult", "skew", "jt"))
        extra = [_partition(rng)] if op != "jt" or rng.random() < 0.5 else []
        return [verb, op, _partition(rng), *extra]
    if verb == "lr":
        return [verb, _partition(rng), _partition(rng), _partition(rng)]
    family = rng.choice(("sp", "o", "orthogonal", "symplectic", "x"))
    if verb == "branch":
        return [verb, _partition(rng), "--target", family]
    if verb == "dcoef":
        lam = ["--lam", _partition(rng)] if rng.random() < 0.4 else []
        return [verb, _partition(rng), _partition(rng), *lam, "--family", family]
    if verb == "wdecomp":
        return [verb, _partition(rng), "--family", family]
    if verb == "wtensor":
        return [verb, _partition(rng), _partition(rng), "--family", family]
    if verb == "verify":
        return [verb]
    family, rank = rng.choice(FAMILIES), _rank(rng)
    if verb == "fermionic":
        argv = [verb, family, str(rank)]
        for _ in range(rng.randint(1, 3)):
            argv += ["--factor", _factor(rng)]
        if rng.random() < 0.5:
            argv.append(f"--weight={_weight(rng, rank if rng.random() < 0.8 else _rank(rng))}")
        return argv
    op = rng.choice(("beta", "commute", "cone", "cone"))
    argv = [verb, op, family, str(rank)]
    return argv + [_cone_target(rng, family, rank)] if op == "cone" else argv


def _draws():
    rng = random.Random(SEED)
    out = []
    for _ in range(COUNT):
        argv = _argv(rng)
        cap = rng.choice(MAX_BOXES)
        out.append(argv if cap == 10 and rng.random() < 0.5 else ["--max-boxes", str(cap), *argv])
    return out


def _tsv_case(argv, payload):
    """The `TSV_CASES` entry whose row reader fits this argv and its first JSON line."""
    args = argv[2:] if argv[0] == "--max-boxes" else argv
    verb = args[0]
    if verb in ("part", "schur"):
        return f"{verb}-{args[1]}"
    if verb == "dcoef":
        return "dcoef-lam" if "--lam" in args else verb
    if verb == "fermionic":
        return "fermionic-weight" if "multiplicity" in payload else verb
    if verb == "roots" and args[1] == "cone":
        return "roots-cone-off-lattice" if "note" in payload else "roots-cone-alpha"
    return f"roots-{args[1]}" if verb == "roots" else verb


class Late(Exception):
    pass


def _late(signum, frame):
    raise Late


def _run(capsys, argv):
    """(exit code, stdout, stderr, whether argparse itself exited)."""
    previous = signal.signal(signal.SIGALRM, _late)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        code, parser_exit = main(argv), False
    except SystemExit as exc:
        code, parser_exit = exc.code, True
    except Late:
        pytest.fail(f"lrwkit {' '.join(argv)} passed the {DEADLINE_S} s deadline")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, parser_exit


def test_draws_cover_the_grammar():
    draws = _draws()
    verbs = {argv[2] if argv[0] == "--max-boxes" else argv[0] for argv in draws}
    assert verbs == {"part", "schur", "lr", "branch", "dcoef", "wdecomp", "wtensor",
                     "fermionic", "roots", "verify"}
    assert any("cone" in argv for argv in draws)


def test_every_argv_answers_or_exits_cleanly(capsys):
    codes = {}
    for argv in _draws():
        code, out, err, parser_exit = _run(capsys, argv)
        codes[code] = codes.get(code, 0) + 1
        assert code in (0, 2, 3), (argv, code, err)
        if code == 0:
            lines = [json.loads(line) for line in out.splitlines()]
            tsv, tsv_out, tsv_err, _ = _run(capsys, ["--format", "tsv", *argv])
            assert tsv == 0, (argv, tsv_err)
            want = TSV_CASES[_tsv_case(argv, lines[0])][1](*lines)
            assert tsv_out.splitlines() == ["\t".join(map(str, row)) for row in want], argv
        elif not parser_exit:
            assert err.startswith("lrwkit: ") and err.count("\n") == 1, (argv, err)
    # each outcome is reached, so the draws exercise answers and both refusals
    assert all(codes.get(code, 0) >= 10 for code in (0, 2, 3)), codes
