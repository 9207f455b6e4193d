"""Command-line client: execution control, tracking, verification, demo.

All commands operate against a file-backed ledger in one working
directory (``--dir`` or STATETRAIL_DIR), which lets multiple processes
act as independent parties without networking. Output is line-oriented
JSON with sorted keys; identical inputs against identical ledger state
produce byte-identical stdout. Exit code 0 means full success, anything
else maps a stable error name (see errors.EXIT_CODES).
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

import click

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
from .ledger import LEDGER_FILE, Ledger, checkpoint_path, verify_chain_file
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


_ENCODE = json.JSONEncoder(sort_keys=True).encode


def emit(*objs: dict, first: Iterable[dict] = ()) -> None:
    """Write one JSON line per object, those of `first` before, to stdout in one write."""
    out = bytearray()
    for obj in itertools.chain(first, objs):
        out += _ENCODE(obj).encode() + b"\n"
    click.echo(out, nl=False)


class TrailGroup(click.Group):
    """Maps TrailError raised by any command to its stable exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except TrailError as exc:
            emit({"detail": str(exc), "error": exc.name})
            sys.exit(exit_code(exc))


@click.group(cls=TrailGroup)
@click.option("--dir", "workdir", envvar="STATETRAIL_DIR", default=".",
              type=click.Path(file_okay=False), help="Working directory.")
@click.option("--account", default=None, help="Sender account id (0x-hex).")
@click.option("--account-file", default=None, type=click.Path(dir_okay=False),
              help="File holding the sender account id.")
@click.option("--seed", default=None, type=int, help="Seed for account derivation.")
@click.pass_context
def cli(ctx, workdir, account, account_file, seed):
    """Tracked execution of state-machine models on a simulated ledger."""
    base = Path(workdir)
    ctx.obj = CliConfig(
        ledger_path=base / LEDGER_FILE,
        store_path=base / STORE_DIR,
        account_file=Path(account_file) if account_file else base / "account.json",
        seed=seed,
        account=account,
    )


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
        sender = json.loads(cfg.account_file.read_bytes())["account"]
    except (OSError, KeyError, TypeError, ValueError, RecursionError):
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


# ---------------------------------------------------------------------- account

@cli.group()
def account():
    """Account management."""


@account.command("new")
@click.option("--save/--no-save", default=True, show_default=True,
              help="Write the account id to the account file.")
@click.pass_obj
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


# ------------------------------------------------------------------------ model

@cli.group()
def model():
    """Model registration."""


@model.command("register")
@click.argument("model_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--id", "descriptor_id", default=None, help="Descriptor id.")
@click.option("--name", "descriptor_name", default=None, help="Descriptor name.")
@click.pass_obj
def model_register(cfg: CliConfig, model_file, descriptor_id, descriptor_name):
    """Validate, hash, store and register a model file."""
    machine = load_model_file(model_file)
    engine = _engine(cfg)
    mh = engine.store.put(canonical_serialize(machine))
    descriptor = Descriptor(id=descriptor_id or machine.name,
                            name=descriptor_name or machine.name)
    engine.submit_call(call_register_model(mh, descriptor))
    emit({"model_hash": mh})


@cli.command("delegate")
@click.argument("subject_hash")
@click.argument("delegate_account")
@click.pass_obj
def delegate(cfg: CliConfig, subject_hash, delegate_account):
    """Grant an account access to a model or instance you own."""
    _engine(cfg).submit_call(call_delegate_access(subject_hash, delegate_account))
    emit({"delegate": delegate_account, "subject": subject_hash})


# --------------------------------------------------------------------- instance

@cli.group()
def instance():
    """Instance lifecycle."""


@instance.command("create")
@click.argument("model_hash_arg", metavar="MODEL_HASH")
@click.option("--nonce", required=True, type=int,
              help="Freshness nonce; part of the instance hash.")
@click.option("--id", "descriptor_id", default=None, help="Descriptor id.")
@click.option("--name", "descriptor_name", default=None, help="Descriptor name.")
@click.pass_obj
def instance_create(cfg: CliConfig, model_hash_arg, nonce, descriptor_id, descriptor_name):
    """Instantiate a registered model and register the instance."""
    engine = _engine(cfg)
    machine = parse_model_bytes(engine.store.get(model_hash_arg))
    descriptor = Descriptor(id=descriptor_id or f"{machine.name}-{nonce}",
                            name=descriptor_name or machine.name)
    state = engine.instantiate(machine, descriptor, nonce)
    emit({
        "initial_state": state_hash(state),
        "instance_hash": state.instance_hash,
        "model_hash": model_hash_arg,
    })


@instance.command("step")
@click.argument("instance_hash")
@click.argument("transition_id")
@click.pass_obj
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


@instance.command("run")
@click.argument("instance_hash")
@click.option("--steps", default=10, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", "walk_seed", default=0, show_default=True, type=int)
@click.pass_obj
def instance_run(cfg: CliConfig, instance_hash, steps, walk_seed):
    """Random walk: fire seeded random enabled transitions, then terminate."""
    engine, state, machine = _instance(cfg, instance_hash)
    trace = engine.random_walk(machine, state, steps, walk_seed)
    emit({"fired": len(trace.steps), "instance_hash": instance_hash, "terminated": True},
         first=({"post_state": s.post_hash, "transition": s.transition_id} for s in trace.steps))


@instance.command("terminate")
@click.argument("instance_hash")
@click.pass_obj
def instance_terminate(cfg: CliConfig, instance_hash):
    """Terminate an active instance."""
    _engine(cfg).terminate(instance_hash)
    emit({"instance_hash": instance_hash, "status": "terminated"})


# ------------------------------------------------------------------- tracking

@cli.command("track")
@click.pass_obj
def track(cfg: CliConfig):
    """Follow ledger events and print protocol entries as they apply."""
    emit(first=(entry.to_dict() for entry in _tracker(cfg).catch_up()))


@cli.group()
def protocol():
    """Instance protocol export and verification."""


@protocol.command("export")
@click.argument("instance_hash")
@click.pass_obj
def protocol_export(cfg: CliConfig, instance_hash):
    """Print the instance protocol as JSON Lines."""
    tracker = _protocol(cfg, instance_hash)
    sys.stdout.buffer.write(tracker.export(instance_hash))
    sys.stdout.buffer.flush()


@protocol.command("verify")
@click.argument("instance_hash")
@click.pass_obj
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


# ---------------------------------------------------------------------- chain

@cli.group()
def chain():
    """Ledger integrity."""


@chain.command("verify")
@click.pass_obj
def chain_verify(cfg: CliConfig):
    """Check every block's bytes, hash and link, then re-execute the chain.

    The checkpoint is deleted first, so the re-execution starts from
    genesis and a successful one writes a fresh checkpoint. Exit 0 only
    if intact.
    """
    if not cfg.ledger_path.is_file():
        raise ChainCorrupt(f"no ledger file at {cfg.ledger_path}")
    report = verify_chain_file(cfg.ledger_path)
    if report.ok and report.blocks_checked:
        checkpoint_path(cfg.ledger_path).unlink(missing_ok=True)
        Ledger.open(cfg.ledger_path, Registry())
    emit(report.to_dict())
    if not report.ok:
        raise ChainCorrupt(f"{report.reason} at height {report.first_bad_height}")


# ----------------------------------------------------------------------- demo

@cli.group()
def demo():
    """Scenario harnesses."""


@demo.command("multiparty")
@click.option("--parties", default=3, show_default=True, type=click.IntRange(min=2))
@click.option("--steps", default=50, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", "demo_seed", default=7, show_default=True, type=int)
@click.option("--workdir", default=None, type=click.Path(file_okay=False),
              help="Scenario directory, reset first; defaults to a fresh temp dir.")
def demo_multiparty(parties, steps, demo_seed, workdir):
    """Full multi-party scenario; asserts convergence of all trackers."""
    import tempfile

    from .demo import multiparty

    target = Path(tempfile.mkdtemp(prefix="statetrail-demo-") if workdir is None else workdir)
    summary = multiparty(parties=parties, steps=steps, seed=demo_seed, workdir=target)
    click.echo(f"workdir: {target}", err=True)
    emit(summary)


main = cli  # the console script's entry point

if __name__ == "__main__":
    main()
