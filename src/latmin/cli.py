"""Command line entry point with deterministic JSON output.

Subcommands: count, minima, chi, verify, ledger (eval | sweep | simulate).
Each ``cmd_*`` only computes: it returns (config, report bytes, seed, exit
code), the report as a list of byte strings.  ``_run``, which ``main``
calls, alone sets the budget, reads the clock and writes stdout: one JSON
document per run, a report or an error.  Exit codes: 0 success, 1
inequality violation, 2 usage/config error, 3 enumeration budget exceeded,
4 stdout closed or full (said in one line on stderr, and no second
document is tried).

Reals are serialized as decimal strings with 12 significant digits (plus an
exact "p/q" field where one exists) so output is byte-identical across runs
and platforms.  Wall-clock timing is only emitted when LATMIN_TIMING is set,
to keep default output reproducible.  The report is encoded once, compact
with sorted keys; its pieces are hashed for manifest.result_digest
(``record.digest16``) and written, between the manifest and the closing
brace, as the {"manifest", "report"} line: the report is never copied
into one document.  ``ledger simulate`` writes the buffers of its forked
shards in trial order (see ``_run_forked``), so stdout does not depend on
``--threads``.

Importing this module loads ``argparse``, ``contextvars`` and ``json``
and, of latmin, only ``errors`` and ``record`` (whose SHA-256 is the
interpreter's own: no process loads OpenSSL); not ``fractions`` with its
``decimal``, which only the lattice layers need.  Each ``cmd_*`` imports
the layers its subcommand runs, so a ``count`` loads no minima,
inequality or ledger code and a ``ledger`` run no lattice code and no
``intervals``.  No subcommand loads mpmath (e^x is enclosed in integers,
see ``intervals``), nor the standard library's dataclass module with its
``inspect``: the value types are ``record``s.  A process starts at
``entry``, which freezes the heap once ``main`` has returned, so the
interpreter's shutdown runs no collection over what the imports built.
"""

from __future__ import annotations

import argparse
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
    CPU and one per 100 trials (a fork's round trip costs about 30 trials'
    time: 2.6 ms against 76-98 us a trial on a 2-vCPU Xeon), and at least
    1."""
    return max(1, min(threads, cpus, trials // 100))


def _run_forked(fn, shards: list) -> list:
    """[fn(s) for s in shards]: shards[0] here, each other one in an os.fork
    child that pipes back fn(s) pickled (protocol 5: a bytearray is read
    straight into its own buffer), leaves by os._exit (no atexit, no
    inherited flush) and stops within 0.1 s once its parent is gone.  A
    shard with no whole result (no child, or it raised or was killed) runs
    again here, so a real error is raised as a serial run raises it.  Every
    child is reaped before return (the CLI starts no thread: it forks safely)."""
    if len(shards) == 1 or not hasattr(os, "fork"):
        return [fn(s) for s in shards]
    import pickle
    import signal

    def stop_if_orphaned(*_):
        if os.getppid() != parent:
            os._exit(1)

    parent, children = os.getpid(), []  # (pid, the read end of its pipe)
    lost = object()  # the value of a shard with no whole result from its child
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
                            pickle.dump(fn(s), fh, protocol=5)
                    finally:
                        os._exit(0)
                os.close(w)
                children.append((pid, os.fdopen(r, "rb")))
        except OSError:  # out of processes or pipes: the other shards run here
            pass
        results = [fn(shards[0])]
        for i, s in enumerate(shards[1:]):
            try:  # what our own child wrote, if whole (an empty pipe loads none)
                value = pickle.load(children[i][1]) if i < len(children) else lost
            except Exception:
                value = lost
            results.append(fn(s) if value is lost else value)
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
    conf = {"module": args.module, "strict": args.strict}
    return conf, body, None, 0


def cmd_minima(args):
    from .minima import successive_minima
    from .norms import load_module

    rep = successive_minima(load_module(args.module))
    report = {"lambdas": rep.lambdas, "mus": rep.mus, "witnesses": rep.witnesses,
              "exact": [{"alpha": a, "key": k, "den": d, "squared": sq}
                        for a, k, d, sq in rep.mu_parts]}
    return {"module": args.module}, [encode(report).encode()], None, 0


def cmd_chi(args):
    from .minima import ball_volume
    from .norms import load_module

    vol = ball_volume(load_module(args.module))
    report = {"chi": vol.log_value, "method": vol.method}
    return {"module": args.module}, [encode(report).encode()], None, 0


def cmd_verify(args):
    from .inequalities import run_suite

    if args.suite != "counting":
        raise ConfigError(f"unknown suite {args.suite!r}")
    summary = run_suite(seed=args.seed, trials=args.trials, rank_max=args.max_rank)
    cfg = {"suite": args.suite, "trials": args.trials, "seed": args.seed,
           "max_rank": args.max_rank}
    code = 1 if summary["total_violations"] else 0
    return cfg, [encode(summary).encode()], args.seed, code


def cmd_ledger_eval(args):
    from .ledger import (eval_theorem, ledger_from_json, sum_ci_bound,
                         theorem_chain_check)

    with open(args.config) as fh:
        cfg = json.load(fh)
    if args.theorem:
        report = eval_theorem(args.theorem, cfg)
        # only Corollary E checks a value (delta_X) against its bounds
        code = int(args.theorem == "E"
                   and not (report.holds_omega and report.holds_chi))
    else:
        ledger = ledger_from_json(cfg)
        report = {"theorem_chain": theorem_chain_check(ledger),
                  "sum_ci": sum_ci_bound(ledger)}
        code = 0 if all(r.holds for r in report.values()) else 1
    conf = {"config": args.config, "theorem": args.theorem}
    return conf, [encode(report).encode()], None, code


def cmd_ledger_sweep(args):
    from .ledger import verify_constant_chain

    reports = verify_constant_chain(args.g_max, args.kappa_max)
    code = 1 if any(not r.holds for r in reports) else 0
    conf = {"g_max": args.g_max, "kappa_max": args.kappa_max}
    return conf, [encode(reports).encode()], None, code


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
    conf = {"seed": args.seed, "mode": args.mode, "trials": args.trials}
    return conf, body, args.seed, 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latmin",
                                     description="normed lattice toolkit")
    parser.add_argument("--threads", type=int, default=1,
                        help="at least 1; processes for ledger simulate "
                             "(other subcommands run in one)")
    sub = parser.add_subparsers(dest="command", required=True)
    module = argparse.ArgumentParser(add_help=False)
    module.add_argument("--module", required=True)
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int)
    p = sub.add_parser("count", parents=[module, budget],
                       help="count effective sections")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--emit-vectors", action="store_true")
    p.set_defaults(func=cmd_count)
    p = sub.add_parser("minima", parents=[module, budget], help="successive minima")
    p.set_defaults(func=cmd_minima)
    p = sub.add_parser("chi", parents=[module], help="Euler characteristic")
    p.set_defaults(func=cmd_chi)
    p = sub.add_parser("verify", parents=[budget], help="run the inequality suite")
    p.add_argument("--suite", default="counting")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rank", type=int, default=3)
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("ledger", help="reduction-ledger tools")
    lsub = p.add_subparsers(dest="ledger_cmd", required=True)
    p = lsub.add_parser("eval")
    p.add_argument("--config", required=True)
    p.add_argument("--theorem", choices=["B", "C", "D", "E", "deg1", "trivial"])
    p.set_defaults(func=cmd_ledger_eval)
    p = lsub.add_parser("sweep")
    p.add_argument("--g-max", type=int, default=1000)
    p.add_argument("--kappa-max", type=int, default=50)
    p.set_defaults(func=cmd_ledger_sweep)
    p = lsub.add_parser("simulate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", required=True)
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_ledger_simulate)

    return parser


def _run(args) -> int:
    """Run the subcommand under its budget and print its report, or the error
    that stopped it, as the run's one document.  If stdout cannot take it
    (closed, full), say so in one line on stderr and return 4."""
    head = {"tool": "latmin", "version": __version__, "subcommand": args.command}
    config = {}
    try:
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        if "budget" in args:  # the budget of every walk of this run
            from .enumeration import BUDGET, DEFAULT_BUDGET

            budget = DEFAULT_BUDGET if args.budget is None else args.budget
            if budget < 0:
                raise ConfigError(f"budget must be nonnegative, got {budget}")
            BUDGET.set(budget)
            config["budget"] = budget
        started = time.monotonic()
        own_config, body, seed, exit_code = args.func(args)
        name = f"ledger-{args.ledger_cmd}" if args.command == "ledger" else args.command
        manifest = dict(head, subcommand=name, seed=seed,
                        config=jsonable({**config, **own_config}),
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
        out = sys.stdout.buffer
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
        args = build_parser().parse_args(argv)
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
