"""Shard-equivalence contract checker for the study engines.

The sharded engine (:mod:`repro.study.sharded`) may only ever be an
optimization: for any shard count the merged run records must serialize
byte-for-byte identically to the single-process engine's.  This module
is the reusable harness that enforces it — imported by the test suite
and runnable standalone against any config::

    PYTHONPATH=src python tests/shardcheck.py --users 33 --seed 2004 --shards 1 4

Exit status 0 means every requested shard count reproduced the
single-process bytes exactly; any drift prints the first divergence and
exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path

if __package__ in (None, ""):  # standalone: make `repro` importable
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.faults.shardchaos import ShardFaultPlan  # noqa: E402
from repro.stores.results import ResultStore  # noqa: E402
from repro.study.controlled import ENGINES  # noqa: E402
from repro.study import (  # noqa: E402  (after the standalone path fix-up)
    ControlledStudyConfig,
    StudyCheckpoint,
    StudyResult,
    SupervisorPolicy,
    run_controlled_study,
    run_sharded_study,
)

__all__ = [
    "assert_resume_equivalence",
    "assert_shard_equivalence",
    "golden_digest",
    "serialized_records",
    "study_digest",
]


def serialized_records(result: StudyResult) -> list[bytes]:
    """The study's records in canonical stored form: one encoded JSON
    line per run, in study order — exactly the bytes ``ResultStore``
    writes."""
    return [(run.to_json() + "\n").encode() for run in result.runs]


def study_digest(result: StudyResult) -> str:
    """SHA-256 over the concatenated canonical record lines."""
    digest = hashlib.sha256()
    for line in serialized_records(result):
        digest.update(line)
    return digest.hexdigest()


def _first_divergence(a: list[bytes], b: list[bytes]) -> str:
    if len(a) != len(b):
        return f"record counts differ: {len(a)} vs {len(b)}"
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return f"record {i} differs:\n  baseline: {x!r}\n  sharded:  {y!r}"
    return "no divergence"


def assert_shard_equivalence(
    config: ControlledStudyConfig,
    shard_counts: tuple[int, ...] = (1, 2, 4, 8),
    mp_context: str | None = None,
    verbose: bool = False,
) -> str:
    """Run ``config`` single-process and at every shard count; assert all
    serializations are byte-identical.  Returns the common digest."""
    baseline = run_controlled_study(config)
    baseline_records = serialized_records(baseline)
    baseline_digest = study_digest(baseline)
    for shards in shard_counts:
        started = time.perf_counter()
        sharded = run_sharded_study(config, shards=shards, mp_context=mp_context)
        elapsed = time.perf_counter() - started
        records = serialized_records(sharded)
        assert records == baseline_records, (
            f"--shards {shards} diverged from the single-process engine: "
            + _first_divergence(baseline_records, records)
        )
        if verbose:
            print(
                f"  shards={shards}: {len(records)} records, "
                f"{elapsed:.2f}s, sha256={baseline_digest[:16]}... OK"
            )
    return baseline_digest


def assert_resume_equivalence(
    config: ControlledStudyConfig,
    shards: int = 4,
    chaos: ShardFaultPlan | None = None,
    mp_context: str | None = None,
    verbose: bool = False,
) -> str:
    """Interrupt a checkpointed study with seeded chaos, resume it, and
    assert the resumed output is byte-identical to an uninterrupted run.

    The chaos plan must include a driver interrupt (``sigint``; the
    default plan fires after the first shard completion) and may layer
    worker kills on top.  The supervisor runs with ``quarantine=False``
    so a shard that somehow exhausts its retries fails loudly instead
    of silently shrinking the output.  Returns the study digest.
    """
    baseline = run_controlled_study(config)
    baseline_blob = b"".join(serialized_records(baseline))
    baseline_digest = study_digest(baseline)
    if chaos is None:
        chaos = ShardFaultPlan(sigint=1.0)
    assert chaos.sigint > 0.0, (
        "resume check needs a driver-interrupt probability (sigint) in "
        "its chaos plan, or nothing ever interrupts the study"
    )
    policy = SupervisorPolicy(
        max_attempts=6, base_delay=0.01, max_delay=0.05, quarantine=False
    )
    with tempfile.TemporaryDirectory(prefix="uucs-resume-check-") as td:
        store = ResultStore(td)
        interrupted = False
        started = time.perf_counter()
        try:
            run_sharded_study(
                config,
                shards=shards,
                mp_context=mp_context,
                supervisor=policy,
                checkpoint=StudyCheckpoint(store),
                chaos=chaos,
            )
        except KeyboardInterrupt:
            interrupted = True
        assert interrupted, (
            f"chaos plan {chaos} never interrupted the study; the resume "
            "path was not exercised"
        )
        partial = store.path.read_bytes() if store.path.exists() else b""
        assert baseline_blob.startswith(partial), (
            "interrupted store is not a byte prefix of the uninterrupted "
            "run: frontier-ordered checkpointing is broken"
        )
        if verbose:
            print(
                f"  interrupted with {len(partial)}/{len(baseline_blob)} "
                f"bytes committed; resuming"
            )
        resumed = run_sharded_study(
            config,
            shards=shards,
            mp_context=mp_context,
            supervisor=policy,
            checkpoint=StudyCheckpoint(store),
            resume=True,
        )
        elapsed = time.perf_counter() - started
        records = serialized_records(resumed)
        assert records == serialized_records(baseline), (
            "resumed study diverged from the uninterrupted run: "
            + _first_divergence(serialized_records(baseline), records)
        )
        stored = store.path.read_bytes()
        assert stored == baseline_blob, (
            f"resumed store bytes differ from the uninterrupted run "
            f"({len(stored)} vs {len(baseline_blob)} bytes)"
        )
        if verbose:
            print(
                f"  resume: {len(records)} records, {elapsed:.2f}s, "
                f"sha256={baseline_digest[:16]}... OK"
            )
    return baseline_digest


def golden_digest(config: ControlledStudyConfig) -> str | None:
    """The pinned golden digest for ``config``, or None when the config
    is not the canonical study.  Engines never enter the identity: every
    registered engine must reproduce the same bytes, which is exactly
    what checking the pin under ``--engine batch`` proves."""
    canonical = ControlledStudyConfig()
    if (
        config.n_users != canonical.n_users
        or config.seed != canonical.seed
        or config.tasks != canonical.tasks
    ):
        return None
    pin = Path(__file__).resolve().parent / "golden" / (
        "controlled_study_seed2004.sha256"
    )
    return pin.read_text().split()[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="check sharded-study byte-equivalence for a config"
    )
    parser.add_argument("--users", type=int, default=33)
    parser.add_argument("--seed", type=int, default=2004)
    parser.add_argument("--engine", choices=sorted(ENGINES),
                        default="analytic")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4, 8])
    parser.add_argument("--mp-context", default=None,
                        choices=["fork", "spawn", "forkserver"])
    parser.add_argument("--resume-check", action="store_true",
                        help="also interrupt a checkpointed run with seeded "
                             "chaos at each shard count and prove the "
                             "resumed output is byte-identical")
    parser.add_argument("--chaos", default="sigint=1.0", metavar="SPEC",
                        help="shard chaos spec for --resume-check "
                             "(default: interrupt after the first shard)")
    parser.add_argument("--chaos-seed", type=int,
                        default=int(os.environ.get("UUCS_CHAOS_SEED", "0")),
                        help="seed for the --resume-check fault schedule "
                             "(default: $UUCS_CHAOS_SEED, else 0)")
    args = parser.parse_args(argv)
    config = ControlledStudyConfig(
        n_users=args.users, seed=args.seed, engine=args.engine
    )
    print(
        f"shardcheck: users={args.users} seed={args.seed} "
        f"engine={args.engine} shards={args.shards}"
        + (f" resume-check chaos={args.chaos!r} "
           f"chaos-seed={args.chaos_seed}" if args.resume_check else "")
    )
    try:
        digest = assert_shard_equivalence(
            config,
            shard_counts=tuple(args.shards),
            mp_context=args.mp_context,
            verbose=True,
        )
        if args.resume_check:
            plan = ShardFaultPlan.parse(args.chaos, seed=args.chaos_seed)
            for shards in args.shards:
                if shards < 2:
                    continue  # one shard has nothing mid-study to resume
                print(f"  resume-check shards={shards}:")
                assert_resume_equivalence(
                    config,
                    shards=shards,
                    chaos=plan,
                    mp_context=args.mp_context,
                    verbose=True,
                )
    except AssertionError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    golden = golden_digest(config)
    if golden is not None:
        if digest != golden:
            print(
                f"FAIL: engine {args.engine!r} diverged from the golden "
                f"seed-2004 pin (got {digest}, pinned {golden})",
                file=sys.stderr,
            )
            return 1
        print(f"OK: matches the golden seed-2004 pin ({golden[:16]}...)")
    print(f"OK: all shard counts byte-identical (sha256 {digest})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
