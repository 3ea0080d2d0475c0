"""Command line entry point with deterministic JSON output.

Subcommands: count, minima, chi, verify, ledger (eval | sweep | simulate).
One JSON document per run on stdout; exit codes: 0 success, 1 inequality
violation, 2 usage/config error, 3 enumeration budget exceeded.

Reals are serialized as decimal strings with 12 significant digits (plus an
exact "p/q" field where one exists) so output is byte-identical across runs
and platforms.  Wall-clock timing is only emitted when LATMIN_TIMING is set,
to keep default output reproducible.  The report is encoded once, compact
with sorted keys; that string is hashed for manifest.result_digest (16 hex
digits of sha256) and spliced into the printed {"manifest", "report"} line.
``ledger simulate`` runs its trials in up to ``--threads`` forked shards and
splices their texts in trial order, so stdout does not depend on it: a shard
with no whole result, whatever the cause, runs again in the first process.
Each trial's text is the ledger's and its reports' ``json_text``, the bytes
``encode`` gives their dict form, with no dict built.

Importing this module loads ``argparse``, ``contextvars``, ``json``,
``hashlib`` and ``fractions`` and, of latmin, only ``errors``: each
``cmd_*`` imports the layers its subcommand runs, so a ``count`` loads no
minima, inequality or ledger code and a ``ledger`` run no lattice code.
No subcommand loads mpmath (e^x is enclosed in integers, see
``intervals``), nor the standard library's dataclass module with its
``inspect``: the value types are ``record``s.
"""

from __future__ import annotations

import argparse
import contextvars
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import ConfigError, LatminError

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
    if isinstance(obj, Fraction):  # an ABC, so a slow test: after the builtins
        return f"{obj.numerator}/{obj.denominator}"  # as norms.format_rational
    return str(obj)


def encode(report) -> str:
    """The report's JSON text: compact, sorted keys, reals as in jsonable."""
    return _dumps(jsonable(report))


def _trial_text(ledger, chain, sum_ci) -> str:
    """encode({"ledger": ledger.to_json(), "sum_ci": sum_ci, "theorem_chain":
    chain}) in one pass, from the ledger's and the reports' own layouts."""
    return ('{"ledger":%s,"sum_ci":%s,"theorem_chain":%s}'
            % (ledger.json_text(), sum_ci.json_text(), chain.json_text()))


def _emit(subcommand: str, config: dict, body: str, seed, started: float,
          exit_code: int = 0) -> int:
    manifest = {
        "tool": "latmin",
        "version": __version__,
        "subcommand": subcommand,
        "config": jsonable(config),
        "seed": seed,
        "result_digest": hashlib.sha256(body.encode()).hexdigest()[:16],
    }
    if os.environ.get("LATMIN_TIMING"):
        manifest["duration_s"] = fmt_real(time.monotonic() - started)
    print('{"manifest":' + _dumps(manifest) + ',"report":' + body + "}")
    return exit_code


def _emit_error(subcommand: str, exc: Exception, exit_code: int) -> int:
    doc = {
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "manifest": {"tool": "latmin", "version": __version__,
                     "subcommand": subcommand},
    }
    print(_dumps(doc))
    return exit_code


def shard_count(threads: int, trials: int, cpus: int) -> int:
    """Processes for `trials` simulated ledgers: at most `threads`, one per
    CPU and one per 100 trials (a fork's round trip costs about 30 trials'
    time: 2.6 ms against 76-98 us a trial on a 2-vCPU Xeon), and at least
    1."""
    return max(1, min(threads, cpus, trials // 100))


def _run_forked(fn, shards: list) -> list:
    """[fn(s) for s in shards]: shards[0] here, each other one in an os.fork
    child that pipes back pickle.dumps(fn(s)), leaves by os._exit (no atexit,
    no inherited flush) and stops within 0.1 s once its parent is gone.  A
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
                            fh.write(pickle.dumps(fn(s)))
                    finally:
                        os._exit(0)
                os.close(w)
                children.append((pid, os.fdopen(r, "rb")))
        except OSError:  # out of processes or pipes: the other shards run here
            pass
        results = [fn(shards[0])]
        for i, s in enumerate(shards[1:]):
            data = children[i][1].read() if i < len(children) else b""
            try:  # what our own child wrote, if whole (b"" loads nothing)
                value = pickle.loads(data)
            except Exception:
                value = lost
            results.append(fn(s) if value is lost else value)
        return results
    finally:  # a child whose pipe is at its end has only os._exit left to do
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _budget(args) -> int:
    """The enumeration budget, --budget or else the default, set as the
    budget of every walk of this run (``enumeration.BUDGET``)."""
    from .enumeration import BUDGET, DEFAULT_BUDGET

    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if budget < 0:
        raise ConfigError(f"budget must be nonnegative, got {budget}")
    BUDGET.set(budget)
    return budget


def cmd_count(args) -> int:
    from .enumeration import effective_sections, strictly_effective_sections
    from .norms import load_module

    started = time.monotonic()
    budget = _budget(args)
    module = load_module(args.module)
    sections = (strictly_effective_sections(module) if args.strict
                else effective_sections(module))
    report = {"count": sections.count, "log_count": sections.log_count,
              "threshold_kind": sections.threshold_kind}
    if args.emit_vectors:
        report["vectors"] = [list(v) for v in sections.vectors]
    cfg = {"module": args.module, "strict": args.strict, "budget": budget}
    return _emit("count", cfg, encode(report), None, started)


def cmd_minima(args) -> int:
    from .minima import successive_minima
    from .norms import load_module

    started = time.monotonic()
    budget = _budget(args)
    module = load_module(args.module)
    rep = successive_minima(module)
    report = {
        "lambdas": list(rep.lambdas),
        "mus": list(rep.mus),
        "witnesses": [list(w) for w in rep.witnesses],
        "exact": [{"alpha": a, "key": k, "den": d,
                   "squared": sq} for a, k, d, sq in rep.mu_parts],
    }
    cfg = {"module": args.module, "budget": budget}
    return _emit("minima", cfg, encode(report), None, started)


def cmd_chi(args) -> int:
    from .minima import euler_characteristic
    from .norms import load_module

    started = time.monotonic()
    module = load_module(args.module)
    chi = euler_characteristic(module)
    report = {"chi": chi.value, "method": chi.method}
    return _emit("chi", {"module": args.module}, encode(report), None, started)


def cmd_verify(args) -> int:
    from .inequalities import SuiteConfig, run_suite

    started = time.monotonic()
    if args.suite != "counting":
        raise ConfigError(f"unknown suite {args.suite!r}")
    budget = _budget(args)
    config = SuiteConfig(seed=args.seed, trials=args.trials,
                         rank_max=args.max_rank)
    summary = run_suite(config)
    cfg = {"suite": args.suite, "trials": args.trials, "seed": args.seed,
           "max_rank": args.max_rank, "budget": budget}
    code = 1 if summary["total_violations"] else 0
    return _emit("verify", cfg, encode(summary), args.seed, started, code)


def cmd_ledger(args) -> int:
    from .ledger import (eval_theorem, ledger_from_json, simulate_reduction,
                         sum_ci_bound, theorem_chain_check,
                         verify_constant_chain)

    started = time.monotonic()
    if args.ledger_cmd == "eval":
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
        return _emit("ledger-eval", conf, encode(report), None, started, code)
    if args.ledger_cmd == "sweep":
        reports = verify_constant_chain(args.g_max, args.kappa_max)
        code = 1 if any(not r.holds for r in reports) else 0
        conf = {"g_max": args.g_max, "kappa_max": args.kappa_max}
        return _emit("ledger-sweep", conf, encode(reports), None, started, code)
    if args.ledger_cmd == "simulate":
        if args.trials < 1:
            raise ConfigError("trials must be >= 1")
        if args.seed < 0:
            raise ConfigError("seed must be >= 0")

        def shard(seeds):
            out, violations = [], 0
            for seed in seeds:
                ledger = simulate_reduction(seed, args.mode)
                chain, sumci = theorem_chain_check(ledger), sum_ci_bound(ledger)
                violations += not (chain.holds and sumci.holds)
                out.append(_trial_text(ledger, chain, sumci))
            return violations, ",".join(out)

        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        n = shard_count(args.threads, args.trials, cpus)
        cut = [args.seed + args.trials * i // n for i in range(n + 1)]
        parts = _run_forked(shard, [range(a, b) for a, b in zip(cut, cut[1:])])
        violations = sum(v for v, _ in parts)
        # encode(report) of {"results", "trials", "violations"}, keys sorted
        body = ('{"results":[' + ",".join(text for _, text in parts)
                + f'],"trials":{args.trials},"violations":{violations}}}')
        conf = {"seed": args.seed, "mode": args.mode, "trials": args.trials}
        return _emit("ledger-simulate", conf, body, args.seed, started,
                     1 if violations else 0)
    raise ConfigError("unknown ledger subcommand")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latmin",
                                     description="normed lattice toolkit")
    parser.add_argument("--threads", type=int, default=1,
                        help="at least 1; processes for ledger simulate "
                             "(other subcommands run in one)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count effective sections")
    p.add_argument("--module", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--emit-vectors", action="store_true")
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("minima", help="successive minima")
    p.add_argument("--module", required=True)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_minima)

    p = sub.add_parser("chi", help="Euler characteristic")
    p.add_argument("--module", required=True)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("verify", help="run the inequality suite")
    p.add_argument("--suite", default="counting")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--budget", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ledger", help="reduction-ledger tools")
    lsub = p.add_subparsers(dest="ledger_cmd", required=True)
    pe = lsub.add_parser("eval")
    pe.add_argument("--config", required=True)
    pe.add_argument("--theorem", choices=["B", "C", "D", "E", "deg1", "trivial"])
    ps = lsub.add_parser("sweep")
    ps.add_argument("--g-max", type=int, default=1000)
    ps.add_argument("--kappa-max", type=int, default=50)
    pm = lsub.add_parser("simulate")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--mode", required=True)
    pm.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_ledger)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    name = getattr(args, "command", "?")
    try:
        if args.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {args.threads}")
        # a fresh context per run: the budget one sets ends with it
        return contextvars.copy_context().run(args.func, args)
    except LatminError as exc:
        return _emit_error(name, exc, exc.exit_code)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # an input file that cannot be read or parsed, or is nested too deep
        # to decode, is bad input
        return _emit_error(name, exc, 2)


if __name__ == "__main__":
    sys.exit(main())
