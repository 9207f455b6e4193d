"""Command-line client: execution control, tracking, verification, demo.

All commands operate against a file-backed ledger in one working
directory (``--dir`` or STATETRAIL_DIR), which lets multiple processes
act as independent parties without networking. Output is line-oriented
JSON with sorted keys; identical inputs against identical ledger state
produce byte-identical stdout. Exit code 0 means full success, anything
else maps a stable error name (see errors.EXIT_CODES).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .engine import Engine, InstanceState, state_hash
from .errors import (
    ChainCorrupt,
    CorruptContent,
    TrailError,
    UnknownSender,
    UnknownSubject,
    VerificationFailed,
    exit_code,
)
from .hashing import encoder, loads
from .ledger import LEDGER_FILE, Ledger, VerificationReport, checkpoint_path, verify_chain_file
from .model import StateMachineModel, canonical_serialize, load_model_file, parse_model_bytes
from .registry import Descriptor, Registry, call_delegate_access, call_register_model
from .store import STORE_DIR, DirectoryContentStore

# commands import what only some of them run (tracker, demo) when they run
if TYPE_CHECKING:
    from .tracker import Tracker


class CliConfig(NamedTuple):
    ledger_path: Path
    store_path: Path
    account_file: Path
    seed: int | None
    account: str | None


_encode = encoder(", ", ": ", ensure_ascii=True, allow_nan=True)  # JSONEncoder(sort_keys=True)


def emit(*objs: dict, first: Iterable[dict] = ()) -> None:
    """Write one JSON line per object, those of `first` before, to stdout in one write."""
    _write(b"".join(_encode(obj).encode() + b"\n" for obj in itertools.chain(first, objs)))


def _write(data: bytes) -> None:
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()


def arg(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One `add_argument` call: a positional argument, or an option and its settings."""
    return names, kwargs


def _path(*, exists: bool = False, file_okay: bool = True, dir_okay: bool = True) -> Callable:
    """A usage check of a path argument: it must exist if `exists`, and be readable if it does."""
    def path(value: str) -> str:
        problem = ("does not exist" if exists and not os.path.exists(value)
                   else "is a file" if not file_okay and os.path.isfile(value)
                   else "is a directory" if not dir_okay and os.path.isdir(value)
                   else "is not readable" if os.path.exists(value)
                   and not os.access(value, os.R_OK) else None)
        if problem:
            raise argparse.ArgumentTypeError(f"{value!r} {problem}")
        return value
    return path


def _at_least(low: int) -> Callable:
    def integer(value: str) -> int:  # its ValueError is argparse's "invalid integer value"
        if int(value) < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return int(value)
    return integer


GLOBAL_OPTIONS = (
    arg("--dir", type=_path(file_okay=False),
        help="Working directory (default: $STATETRAIL_DIR, else the current one)."),
    arg("--account", help="Sender account id (0x-hex)."),
    arg("--account-file", type=_path(dir_okay=False), help="File holding the sender account id."),
    arg("--seed", type=int, help="Seed for account derivation."),
)
GROUPS = {"account": "Account management.", "model": "Model registration.",
          "instance": "Instance lifecycle.", "chain": "Ledger integrity.",
          "protocol": "Instance protocol export and verification.", "demo": "Scenario harnesses."}
# (words, function, arguments) of every command, in the order @command registers them
COMMANDS: list[tuple[tuple[str, ...], Callable, tuple]] = []


def command(words: str, *arguments: tuple[tuple[str, ...], dict]) -> Callable:
    """Register a function of the configuration and one keyword per argument as `words`."""
    return lambda fn: COMMANDS.append((tuple(words.split()), fn, arguments)) or fn


class _Formatter(argparse.HelpFormatter):
    """Usage lines start "Usage: ", as scripts that check a help text expect."""

    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


def _parser(prog: str) -> argparse.ArgumentParser:
    """The command tree. Options are never abbreviated; a usage error exits 2."""
    settings = {"allow_abbrev": False, "formatter_class": _Formatter}
    top = argparse.ArgumentParser(prog=prog, **settings, description=(
        "Tracked execution of state-machine models on a simulated ledger."))
    for names, kwargs in GLOBAL_OPTIONS:
        top.add_argument(*names, **kwargs)
    top.set_defaults(dir=os.environ.get("STATETRAIL_DIR") or ".")  # checked as --dir is
    commands = {(): top.add_subparsers(metavar="COMMAND", required=True)}
    for words, fn, arguments in COMMANDS:
        if words[:-1] not in commands:
            group = commands[()].add_parser(words[0], help=GROUPS[words[0]], **settings)
            commands[words[:-1]] = group.add_subparsers(metavar="COMMAND", required=True)
        parser = commands[words[:-1]].add_parser(words[-1], help=fn.__doc__.splitlines()[0],
                                                 description=fn.__doc__, **settings)
        for names, kwargs in arguments:
            parser.add_argument(*names, **kwargs)
        parser.set_defaults(run=fn)
    return top


class Cli:
    """`main` runs one command and exits: 0, 2 for a usage error, or a TrailError's code."""

    name = "statetrail"

    def main(self, args: Iterable[str] | None = None, prog_name: str | None = None) -> None:
        params = vars(_parser(prog_name or self.name).parse_args(args))
        base, run = Path(params.pop("dir")), params.pop("run")
        cfg = CliConfig(base / LEDGER_FILE, base / STORE_DIR,
                        Path(params.pop("account_file") or base / "account.json"),
                        params.pop("seed"), params.pop("account"))
        try:
            run(cfg, **params)
        except TrailError as exc:
            emit({"detail": str(exc), "error": exc.name})
            sys.exit(exit_code(exc))
        except BrokenPipeError:  # the reader left early, as `| head` does
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
        except KeyboardInterrupt:
            sys.stderr.write("\nAborted!\n")
            sys.exit(1)
        sys.exit(0)


cli = Cli()
main = cli.main  # the console script's entry point


def _services(cfg: CliConfig) -> tuple[Ledger, Registry, DirectoryContentStore]:
    registry = Registry()
    ledger = Ledger.open(cfg.ledger_path, registry)
    return ledger, registry, DirectoryContentStore(cfg.store_path)


def _sender(cfg: CliConfig) -> str:
    if cfg.account:
        return cfg.account
    if not cfg.account_file.exists():
        raise UnknownSender("no account configured; create one with `account new`")
    try:
        sender = loads(cfg.account_file.read_bytes())["account"]
    except (OSError, KeyError, TypeError, ValueError):
        sender = None
    if not isinstance(sender, str):
        raise UnknownSender(f"the account file {cfg.account_file} holds no account id")
    return sender


def _engine(cfg: CliConfig) -> Engine:
    return Engine(*_services(cfg), _sender(cfg))


def _instance(cfg: CliConfig,
              instance_hash: str) -> tuple[Engine, InstanceState, StateMachineModel]:
    """Engine, latest state and model of an instance; the stored state must fit the model."""
    engine = _engine(cfg)
    state = engine.load_state(instance_hash)
    machine = parse_model_bytes(
        engine.store.get(engine.registry.get_instance(instance_hash).model_hash))
    if (state.instance_hash != instance_hash or state.current_state not in machine.states
            or set(state.variables) != set(machine.variables)):
        raise CorruptContent(f"latest state of {instance_hash} does not fit its model")
    return engine, state, machine


def _tracker(cfg: CliConfig) -> Tracker:
    from .tracker import Tracker

    return Tracker(*_services(cfg))


def _protocol(cfg: CliConfig, instance_hash: str) -> Tracker:
    tracker = _tracker(cfg)
    tracker.catch_up()
    if instance_hash not in tracker.protocols:
        raise UnknownSubject(f"no protocol for instance {instance_hash}")
    return tracker


@command("account new", arg("--save", action=argparse.BooleanOptionalAction, default=True,
                            help="Write the account id to the account file."))
def account_new(cfg: CliConfig, save):
    """Create a fresh account through the faucet and print its id."""
    ledger, _, _ = _services(cfg)
    if save:  # before the account goes on-chain, where a retry could not reuse it
        try:
            cfg.account_file.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UnknownSender(f"no directory for the account file {cfg.account_file}: "
                                f"{exc.strerror}") from exc
        if cfg.account_file.is_dir():
            raise UnknownSender(f"the account file {cfg.account_file} is a directory")
    if cfg.seed is not None:
        from .demo import derive_account

        new_id = derive_account(cfg.seed, len(ledger.known_accounts()))
    else:
        import secrets

        new_id = "0x" + secrets.token_hex(20)
    ledger.create_account(new_id)
    if save:
        cfg.account_file.write_text(json.dumps({"account": new_id}, sort_keys=True) + "\n")
    emit({"account": new_id})


@command("model register", arg("model_file", type=_path(exists=True, dir_okay=False)),
         arg("--id", dest="descriptor_id", help="Descriptor id."),
         arg("--name", dest="descriptor_name", help="Descriptor name."))
def model_register(cfg: CliConfig, model_file, descriptor_id, descriptor_name):
    """Validate, hash, store and register a model file."""
    machine = load_model_file(model_file)
    engine = _engine(cfg)
    mh = engine.store.put(canonical_serialize(machine))
    descriptor = Descriptor(id=descriptor_id or machine.name,
                            name=descriptor_name or machine.name)
    engine.submit_call(call_register_model(mh, descriptor))
    emit({"model_hash": mh})


@command("delegate", arg("subject_hash"), arg("delegate_account"))
def delegate(cfg: CliConfig, subject_hash, delegate_account):
    """Grant an account access to a model or instance you own."""
    _engine(cfg).submit_call(call_delegate_access(subject_hash, delegate_account))
    emit({"delegate": delegate_account, "subject": subject_hash})


@command("instance create", arg("model_hash"),
         arg("--nonce", required=True, type=int,
             help="Freshness nonce; part of the instance hash."),
         arg("--id", dest="descriptor_id", help="Descriptor id."),
         arg("--name", dest="descriptor_name", help="Descriptor name."))
def instance_create(cfg: CliConfig, model_hash, nonce, descriptor_id, descriptor_name):
    """Instantiate a registered model and register the instance."""
    engine = _engine(cfg)
    machine = parse_model_bytes(engine.store.get(model_hash))
    descriptor = Descriptor(id=descriptor_id or f"{machine.name}-{nonce}",
                            name=descriptor_name or machine.name)
    state = engine.instantiate(machine, descriptor, nonce)
    emit({
        "initial_state": state_hash(state),
        "instance_hash": state.instance_hash,
        "model_hash": model_hash,
    })


@command("instance step", arg("instance_hash"), arg("transition_id"))
def instance_step(cfg: CliConfig, instance_hash, transition_id):
    """Fire one transition and register it on-chain."""
    engine, state, machine = _instance(cfg, instance_hash)
    _, record = engine.fire_and_register(state, machine, transition_id)
    emit({
        "instance_hash": instance_hash,
        "post_state": record.post_state,
        "seq": record.seq,
        "transition": transition_id,
    })


@command("instance run", arg("instance_hash"),
         arg("--steps", default=10, type=_at_least(0), help="(default: %(default)s)"),
         arg("--seed", dest="walk_seed", default=0, type=int, help="(default: %(default)s)"))
def instance_run(cfg: CliConfig, instance_hash, steps, walk_seed):
    """Random walk: fire seeded random enabled transitions, then terminate."""
    engine, state, machine = _instance(cfg, instance_hash)
    trace = engine.random_walk(machine, state, steps, walk_seed)
    emit({"fired": len(trace.steps), "instance_hash": instance_hash, "terminated": True},
         first=({"post_state": s.post_hash, "transition": s.transition_id} for s in trace.steps))


@command("instance terminate", arg("instance_hash"))
def instance_terminate(cfg: CliConfig, instance_hash):
    """Terminate an active instance."""
    _engine(cfg).terminate(instance_hash)
    emit({"instance_hash": instance_hash, "status": "terminated"})


@command("track")
def track(cfg: CliConfig):
    """Follow ledger events and print protocol entries as they apply."""
    emit(first=(entry.to_dict() for entry in _tracker(cfg).catch_up()))


@command("protocol export", arg("instance_hash"))
def protocol_export(cfg: CliConfig, instance_hash):
    """Print the instance protocol as JSON Lines."""
    _write(_protocol(cfg, instance_hash).export(instance_hash))


@command("protocol verify", arg("instance_hash"))
def protocol_verify(cfg: CliConfig, instance_hash):
    """Verify every protocol entry; exit 0 only if all entries verify."""
    from .tracker import STATUS_VERIFIED

    tracker = _protocol(cfg, instance_hash)
    statuses = tracker.verify_protocol(instance_hash)
    ok = all(s == STATUS_VERIFIED for s in statuses)
    emit({"entries": len(statuses), "instance_hash": instance_hash, "verified": ok},
         first=({"kind": e.kind, "seq": e.seq, "status": e.status}
                for e in tracker.protocols[instance_hash].entries))
    if not ok:
        bad = sum(1 for s in statuses if s != STATUS_VERIFIED)
        raise VerificationFailed(f"{bad} of {len(statuses)} entries did not verify")


@command("chain verify")
def chain_verify(cfg: CliConfig):
    """Re-execute the chain from genesis, deleting its checkpoint first; exit 0 only if intact."""
    path, checkpoint = cfg.ledger_path, checkpoint_path(cfg.ledger_path)
    if not path.is_file():
        raise ChainCorrupt(f"no ledger file at {path}")
    try:
        checkpoint.unlink(missing_ok=True)
    except OSError as exc:
        if not checkpoint.is_dir():  # open would restore from it; from a directory it cannot
            raise ChainCorrupt(f"cannot remove {checkpoint}: {exc.strerror}") from None
    try:  # open would write a genesis block into an empty file
        blocks = Ledger.open(path, Registry()).height + 1 if path.stat().st_size else 0
    except ChainCorrupt:  # then print the structural report, if that finds the fault
        if (report := verify_chain_file(path)).ok:
            raise
        emit(report.to_dict())
        raise ChainCorrupt(f"{report.reason} at height {report.first_bad_height}") from None
    emit(VerificationReport(True, blocks).to_dict())


@command("demo multiparty",
         arg("--parties", default=3, type=_at_least(2), help="(default: %(default)s)"),
         arg("--steps", default=50, type=_at_least(0), help="(default: %(default)s)"),
         arg("--seed", dest="demo_seed", default=7, type=int, help="(default: %(default)s)"),
         arg("--workdir", type=_path(file_okay=False),
             help="Scenario directory, reset first; defaults to a fresh temp dir."))
def demo_multiparty(cfg: CliConfig, parties, steps, demo_seed, workdir):
    """Full multi-party scenario; asserts convergence of all trackers."""
    import tempfile

    from .demo import multiparty

    target = Path(tempfile.mkdtemp(prefix="statetrail-demo-") if workdir is None else workdir)
    summary = multiparty(parties=parties, steps=steps, seed=demo_seed, workdir=target)
    print(f"workdir: {target}", file=sys.stderr, flush=True)
    emit(summary)


if __name__ == "__main__":
    main()
