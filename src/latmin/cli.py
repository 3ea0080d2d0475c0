"""Command line entry point with deterministic JSON output.

Subcommands: count, minima, chi, verify, ledger (eval | sweep | simulate).
Each ``cmd_*`` only computes: it returns (report bytes, exit code), the
report as a list of byte strings.  ``_run``, which ``main`` calls, alone
sets the budget, reads the clock and writes stdout: one JSON document per
run, a report or an error.  The report's manifest is read from the
subcommand's entry in ``COMMANDS``: its ``config`` holds every option as
parsed (``--budget`` resolved), except ``--emit-vectors``, which only
shapes the output, and its ``seed`` is ``--seed``, or null where the
subcommand has none.  Exit codes: 0 success, 1 inequality violation, 2
usage/config error, 3 enumeration budget exceeded, 4 stdout closed or full
(said in one line on stderr, and no second document is tried).

Reals are serialized as decimal strings with 12 significant digits (plus an
exact "p/q" field where one exists) so output is byte-identical across runs
and platforms.  Wall-clock timing is only emitted when LATMIN_TIMING is set,
to keep default output reproducible.  The report is encoded once, compact
with sorted keys; its pieces are hashed for manifest.result_digest
(``record.digest16``) and written, between the manifest and the closing
brace, as the {"manifest", "report"} line: the report is never copied
into one document.  ``ledger simulate`` writes its shards' buffers in trial
order, each forked one sent back as one length-prefixed byte message (see
``_run_forked``), so stdout does not depend on ``--threads``.

The command line is read from one table, ``COMMANDS`` (each subcommand's
handler and options; ``--threads`` comes before the subcommand), by
``parse_args`` as the standard library's parser read it before: ``--opt
value`` or ``--opt=value``, a unique prefix for the option, the last of a
repeated option.  A usage error exits 2 with the usage line and one error
line on stderr, and no document.  Importing this module loads
``contextvars`` and ``json`` and, of latmin, only ``errors`` and
``record`` (whose SHA-256 is the interpreter's own: no process loads
OpenSSL); not that parser with its ``gettext`` and ``locale`` (4 ms of
every process), and not ``fractions`` with its ``decimal``, which only the
lattice layers need.
Each ``cmd_*`` imports the layers its subcommand runs, so a ``count``
loads no minima, inequality or ledger code and a ``ledger`` run no
lattice code and no ``intervals``.  No subcommand loads mpmath (e^x is
enclosed in integers, see ``intervals``), nor the standard library's
dataclass module with its ``inspect``: the value types are ``record``s.
A process starts at ``entry``, which freezes the heap once ``main`` has
returned, so the interpreter's shutdown runs no collection over what the
imports built.
"""

from __future__ import annotations

import contextvars
import errno
import gc
import json
import os
import sys
import time

from . import __version__
from .errors import ConfigError, LatminError
from .record import digest16

_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def fmt_real(x: float) -> str:
    return f"{x:.12g}"


def jsonable(obj):
    """Deterministic JSON form: floats as 12-sig strings, Fractions as p/q."""
    t = type(obj)  # exact types first: an `is` test is cheaper than isinstance
    if t is float:
        return fmt_real(obj)
    if t is str or t is int or t is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):  # before _fields: a namedtuple has them
        return [jsonable(v) for v in obj]
    names = getattr(t, "_fields", None)
    if names is not None:  # a record, field by field
        return {name: jsonable(getattr(obj, name)) for name in names}
    fractions = sys.modules.get("fractions")  # no Fraction exists without it
    if fractions is not None and isinstance(obj, fractions.Fraction):
        # an ABC, so a slow test: after the builtins
        return f"{obj.numerator}/{obj.denominator}"  # as norms.format_rational
    return str(obj)


def encode(report) -> str:
    """The report's JSON text: compact, sorted keys, reals as in jsonable.
    Its integers are written in full: the interpreter's limit on the digits
    of an int's str (Python 3.11+), which guards parsing, is lifted only
    while the report is encoded."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _dumps(jsonable(report))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _trial_text(ledger, chain, sum_ci) -> str:
    """encode({"ledger": ledger.to_json(), "sum_ci": sum_ci, "theorem_chain":
    chain}) in one pass, from the ledger's and the reports' own layouts."""
    return ('{"ledger":%s,"sum_ci":%s,"theorem_chain":%s}'
            % (ledger.json_text(), sum_ci.json_text(), chain.json_text()))


def shard_count(threads: int, trials: int, cpus: int) -> int:
    """Processes for `trials` simulated ledgers: at most `threads`, one per
    CPU and one per 100 trials, and at least 1.  On a 2-vCPU Xeon VM, 2,500
    trials took 137 ms in two processes against 168 ms in one with the
    second vCPU free, and 185 against 173 ms with it busy (README)."""
    return max(1, min(threads, cpus, trials // 100))


def _run_forked(fn, shards: list) -> list:
    """[fn(s) for s in shards], each fn(s) an (int, bytes-like) pair (n, b):
    shards[0] here, each other one in an os.fork child that pipes it back as
    the line b"%d %d\\n" % (n, len(b)) and then b, leaves by os._exit (no
    atexit, no inherited flush) and stops within 0.1 s once its parent is
    gone.  A shard with no whole message (no child, or it raised, was killed
    or stopped mid-write) runs again here, so a real error is raised as a
    serial run raises it.  Every child is killed and reaped before return
    (the CLI starts no thread: it forks safely)."""
    if len(shards) == 1 or not hasattr(os, "fork"):
        return [fn(s) for s in shards]
    import signal

    def stop_if_orphaned(*_):
        if os.getppid() != parent:
            os._exit(1)

    parent, children = os.getpid(), []  # (pid, the read end of its pipe)
    try:
        try:
            for s in shards[1:]:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(r)
                    os.close(w)
                    raise
                if pid == 0:
                    try:
                        signal.signal(signal.SIGALRM, stop_if_orphaned)
                        signal.setitimer(signal.ITIMER_REAL, 0.1, 0.1)
                        with os.fdopen(w, "wb") as fh:  # empty if fn raises
                            n, body = fn(s)
                            fh.writelines((b"%d %d\n" % (n, len(body)), body))
                    finally:
                        os._exit(0)
                os.close(w)
                children.append((pid, os.fdopen(r, "rb")))
        except OSError:  # out of processes or pipes: the other shards run here
            pass
        results = [fn(shards[0])]
        for i, s in enumerate(shards[1:]):
            try:  # the line b"n size\n" and then size bytes, from our child
                head = children[i][1].readline()
                n, size = map(int, head.split() if head.endswith(b"\n") else ())
                body = children[i][1].read(size)
            except (IndexError, ValueError):  # no child, or no whole line n size
                body, size = b"", -1
            results.append((n, body) if len(body) == size else fn(s))
        return results
    finally:  # a child whose pipe is at its end has only os._exit left to do
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_count(args):
    from .enumeration import effective_sections, strictly_effective_sections
    from .norms import load_module

    sections = (strictly_effective_sections if args.strict
                else effective_sections)(load_module(args.module))
    report = {"count": sections.count, "log_count": sections.log_count,
              "threshold_kind": sections.threshold_kind}
    body = [encode(report).encode()]
    if args.emit_vectors:  # "vectors" sorts last: spliced in from the tuples
        body = [body[0][:-1], b',"vectors":', _dumps(sections.vectors).encode(), b"}"]
    return body, 0


def cmd_minima(args):
    from .minima import successive_minima
    from .norms import load_module

    rep = successive_minima(load_module(args.module))
    report = {"lambdas": rep.lambdas, "mus": rep.mus, "witnesses": rep.witnesses,
              "exact": [{"alpha": a, "key": k, "den": d, "squared": sq}
                        for a, k, d, sq in rep.mu_parts]}
    return [encode(report).encode()], 0


def cmd_chi(args):
    from .minima import ball_volume
    from .norms import load_module

    vol = ball_volume(load_module(args.module))
    report = {"chi": vol.log_value, "method": vol.method}
    return [encode(report).encode()], 0


def cmd_verify(args):
    from .inequalities import run_suite

    if args.suite != "counting":
        raise ConfigError(f"unknown suite {args.suite!r}")
    summary = run_suite(seed=args.seed, trials=args.trials, rank_max=args.max_rank)
    return [encode(summary).encode()], 1 if summary["total_violations"] else 0


def cmd_ledger_eval(args):
    from .ledger import (eval_theorem, ledger_from_json, sum_ci_bound,
                         theorem_chain_check)

    with open(args.config) as fh:
        cfg = json.load(fh)
    if args.theorem:
        report, holds = eval_theorem(args.theorem, cfg)
    else:
        ledger = ledger_from_json(cfg)
        report = {"theorem_chain": theorem_chain_check(ledger),
                  "sum_ci": sum_ci_bound(ledger)}
        holds = all(r.holds for r in report.values())
    return [encode(report).encode()], 0 if holds else 1


def cmd_ledger_sweep(args):
    from .ledger import verify_constant_chain

    reports = verify_constant_chain(args.g_max, args.kappa_max)
    return [encode(reports).encode()], 1 if any(not r.holds for r in reports) else 0


def cmd_ledger_simulate(args):
    from .ledger import simulate_reduction, sum_ci_bound, theorem_chain_check

    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")

    def shard(seeds):  # the shard's trials, comma-separated, in one buffer
        out, violations = bytearray(), 0
        for seed in seeds:
            ledger = simulate_reduction(seed, args.mode)
            chain, sumci = theorem_chain_check(ledger), sum_ci_bound(ledger)
            violations += not (chain.holds and sumci.holds)
            if out:
                out += b","
            out += _trial_text(ledger, chain, sumci).encode()
        return violations, out

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n = shard_count(args.threads, args.trials, cpus)
    cut = [args.seed + args.trials * i // n for i in range(n + 1)]
    parts = _run_forked(shard, [range(a, b) for a, b in zip(cut, cut[1:])])
    violations = sum(v for v, _ in parts)
    # encode(report) of {"results", "trials", "violations"}, keys sorted
    body = [b'{"results":[', parts[0][1]]
    for _, text in parts[1:]:
        body += [b",", text]
    body.append(b'],"trials":%d,"violations":%d}' % (args.trials, violations))
    return body, 1 if violations else 0


REQUIRED = object()  # the default of an option that must be given
_MODULE, _BUDGET = {"--module": (str, REQUIRED)}, {"--budget": (int, None)}
THREADS = {"--threads": (int, 1)}  # latmin's own, before the subcommand
# subcommand -> (handler, {option: (type, default)}): the type is int or str,
# which reads the value, bool for a flag, or the tuple of the values allowed
COMMANDS = {
    "count": (cmd_count, {**_MODULE, **_BUDGET, "--strict": (bool, False),
                          "--emit-vectors": (bool, False)}),
    "minima": (cmd_minima, {**_MODULE, **_BUDGET}),
    "chi": (cmd_chi, _MODULE),
    "verify": (cmd_verify, {**_BUDGET, "--suite": (str, "counting"),
                            "--trials": (int, 100), "--seed": (int, 0),
                            "--max-rank": (int, 3)}),
    "ledger eval": (cmd_ledger_eval, {
        "--config": (str, REQUIRED),
        "--theorem": (("B", "C", "D", "E", "deg1", "trivial"), None)}),
    "ledger sweep": (cmd_ledger_sweep, {"--g-max": (int, 1000),
                                        "--kappa-max": (int, 50)}),
    "ledger simulate": (cmd_ledger_simulate, {"--seed": (int, 0),
                                              "--mode": (str, REQUIRED),
                                              "--trials": (int, 10)}),
}
HELP = """
normed lattice toolkit.  --threads N (at least 1): processes for ledger
simulate; every other subcommand runs in one.  The subcommands:
"""


class Args:
    """The parsed command line as attributes (--max-rank as max_rank);
    `name in args` tells whether the subcommand has that option."""

    def __init__(self, **values):
        self.__dict__.update(values)

    def __contains__(self, name) -> bool:
        return name in self.__dict__


def usage(name="") -> str:
    """The usage line of a subcommand, or of latmin for any other name."""
    if name not in COMMANDS:
        return "usage: latmin [--threads N] COMMAND [OPTION ...]"
    words = ["usage: latmin [--threads N]", name]
    for option, (kind, default) in COMMANDS[name][1].items():
        if kind is not bool:
            option += " " + ("{%s}" % ",".join(kind) if type(kind) is tuple
                             else "N" if kind is int else option[2:].upper())
        words.append(option if default is REQUIRED else f"[{option}]")
    return " ".join(words)


def parse_args(argv=None) -> Args:
    """argv (sys.argv[1:] by default) read against THREADS and COMMANDS as
    the standard library's parser read them: a lone "-", a negative number
    and a word with a space are values when they name no option.  -h or
    --help prints the usage text on stdout, and a usage error the usage
    line and one `latmin: error:` line on stderr; each raises SystemExit,
    0 and 2."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name, table, given, extra, i = "", THREADS, {}, [], 0

    def fail(message):
        print(usage(name), "latmin: error: " + message, sep="\n", file=sys.stderr)
        raise SystemExit(2)

    def names(arg):  # None for a value, else the options that arg names
        key = "--help" if arg == "-h" else arg.partition("=")[0]
        if key.startswith("--") and key != "--":  # no option prefixes another
            hits = [o for o in (*table, "--help") if o.startswith(key)]
            if hits:
                return hits
        # "-", the negative numbers -\d+ and -\d*.\d+, and a word
        # with a space are values; any other word that starts with "-" is not
        number = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
        return None if arg[:1] != "-" or arg == "-" or number or " " in arg else []

    while i < len(argv):
        arg, i = argv[i], i + 1
        hits = names(arg)
        if hits is None and name not in COMMANDS:  # a word of the subcommand
            name = f"{name} {arg}".lstrip()
            if not any(f"{c} ".startswith(f"{name} ") for c in COMMANDS):
                fail(f"invalid subcommand {name!r} (choose from {', '.join(COMMANDS)})")
            table = COMMANDS[name][1] if name in COMMANDS else {}
        elif not hits or len(hits) > 1:
            if hits:
                fail(f"ambiguous option {arg}: {', '.join(hits)}")
            extra.append(arg)
        else:
            option, (eq, value) = hits[0], arg.partition("=")[1:]
            kind = table[option][0] if option in table else bool  # --help
            if option == "--help" and not eq:
                print(usage(), HELP, *(f"  {usage(n)[7:]}" for n in COMMANDS), sep="\n")
                raise SystemExit(0)
            if kind is bool:
                if eq:
                    fail(f"argument {option}: no value expected")
                value = True
            elif not eq:
                if i == len(argv) or names(argv[i]) is not None:
                    fail(f"argument {option}: one value expected")
                value, i = argv[i], i + 1
            try:
                given[option] = int(value) if kind is int else value
                if type(kind) is tuple and value not in kind:
                    raise ValueError
            except ValueError:
                fail(f"argument {option}: invalid value {value!r}")
    if name not in COMMANDS:
        fail("a subcommand is required")
    func, table = COMMANDS[name]
    given = {o: d for o, (_, d) in {**THREADS, **table}.items()} | given
    missing = [o for o, v in given.items() if v is REQUIRED]
    if missing or extra:
        fail("missing " + ", ".join(missing) if missing
             else "unrecognized arguments: " + " ".join(extra))
    command, _, sub = name.partition(" ")
    return Args(command=command, func=func, **({"ledger_cmd": sub} if sub else {}),
                **{o[2:].replace("-", "_"): v for o, v in given.items()})


def _run(args) -> int:
    """Run the subcommand under its budget and print its report, or the error
    that stopped it, as the run's one document.  If stdout cannot take it
    (closed, full), say so in one line on stderr and return 4."""
    head = {"tool": "latmin", "version": __version__, "subcommand": args.command}
    try:
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        name, options = next((n, t) for n, (f, t) in COMMANDS.items() if f is args.func)
        config = {key: getattr(args, key) for key in (
            o[2:].replace("-", "_") for o in options if o != "--emit-vectors")}
        if "budget" in args:  # the budget of every walk of this run
            from .enumeration import BUDGET, DEFAULT_BUDGET

            budget = DEFAULT_BUDGET if args.budget is None else args.budget
            if budget < 0:
                raise ConfigError(f"budget must be nonnegative, got {budget}")
            BUDGET.set(budget)
            config["budget"] = budget
        started = time.monotonic()
        body, exit_code = args.func(args)
        manifest = dict(head, subcommand=name.replace(" ", "-"),
                        seed=config.get("seed"), config=config,
                        result_digest=digest16(*body))
        if os.environ.get("LATMIN_TIMING"):
            manifest["duration_s"] = fmt_real(time.monotonic() - started)
        head_text = '{"manifest":' + _dumps(manifest) + ',"report":'
        document = [head_text.encode(), *body, b"}\n"]
    except (LatminError, OSError, ValueError, RecursionError) as exc:
        # an input file that is unreadable, unparsable (json raises a
        # ValueError, also for an integer past the str digit limit) or too
        # deep is bad input
        error = {"type": type(exc).__name__, "message": str(exc)}
        document = [_dumps({"error": error, "manifest": head}).encode() + b"\n"]
        exit_code = exc.exit_code if isinstance(exc, LatminError) else 2
    try:
        if sys.stdout is None:  # file descriptor 1 was closed at start-up
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.flush()  # what the text layer holds goes out first
        out = getattr(sys.stdout, "buffer", None)
        if out is None:  # a text stream only (io.StringIO): the same text
            document, out = [piece.decode() for piece in document], sys.stdout
        for piece in document:
            out.write(piece)
        out.flush()
    except OSError as exc:  # then the flush at exit meets /dev/null, no error
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"latmin: cannot write to stdout: {exc}", file=sys.stderr)
        return 4
    return exit_code


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    # a fresh context per run: the budget one sets ends with it
    return contextvars.copy_context().run(_run, args)


def entry() -> int:
    """The process entry point (``python -m latmin.cli`` and the ``latmin``
    script): ``main()``, whose ``_run`` has flushed stdout, and then
    ``gc.freeze()``, so that the collections at interpreter shutdown skip
    the cycles the imports made (functions and their module dicts, classes)
    and the OS frees them with the process.  Only here: a caller of ``main``
    in its own process keeps its heap collectable."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
