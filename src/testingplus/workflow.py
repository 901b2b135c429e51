"""Read-side workflow queries: compensation statements, audit trails, and
the content-addressed off-chain artifact store."""

from __future__ import annotations

from pathlib import Path

from .chain import fsync_dir, replace_file
from .codec import U64_MAX, hash256, record
from .state import VERDICT_PASS, WorldState


class QueryError(ValueError):
    """A query that the chain cannot answer: a window beyond its head, an
    amount beyond u64, or a test case it does not hold."""


@record("tester", "from_height", "to_height", "executed", "matched", "amount",
        "contribution_ppm")
class CompensationStatement:
    pass


def compute_compensation(
    state: WorldState,
    tester: bytes,
    from_height: int,
    to_height: int,
    base_rate: int,
    bonus_rate: int,
) -> CompensationStatement:
    """Pay-per-run plus a bonus per matching result, over a height window.

    contribution_ppm is the tester's share of all execution records in the
    window, in parts per million (0 when the window is empty).
    """
    if from_height > to_height:
        raise QueryError(f"window start {from_height} is after its end {to_height}")
    if not 0 <= from_height <= to_height <= state.height:
        raise QueryError("window beyond head")
    in_window = [e for e in state.executions if from_height <= e.block_height <= to_height]
    mine = [e for e in in_window if e.tester == tester]
    executed = len(mine)
    matched = sum(1 for e in mine if e.verdict == VERDICT_PASS)
    amount = base_rate * executed + bonus_rate * matched
    if amount > U64_MAX:
        raise QueryError("compensation amount exceeds u64")
    total = len(in_window)
    contribution_ppm = (1_000_000 * executed) // total if total else 0
    return CompensationStatement(
        tester, from_height, to_height, executed, matched, amount, contribution_ppm
    )


@record("kind", "tick", "block_height", "actor", "tx_hash")
class AuditEvent:
    """One step of a test case's history; `kind` is register, execute,
    feedback or settle."""


def audit_trail(state: WorldState, case_id: bytes) -> list[AuditEvent]:
    """Chronological history of one test case: registration, executions,
    feedback on the case or its executions, and any settlement of the linked
    acceptance contract."""
    case = state.test_cases.get(case_id)
    if case is None:
        raise QueryError(f"unknown test case {case_id.hex()}")
    events: list[tuple[int, AuditEvent]] = [
        (case.seq, AuditEvent("register", case.tick, case.block_height, case.author, case.tx_hash))
    ]
    exec_ids = set()
    for e in state.executions:
        if e.case_id == case_id:
            exec_ids.add(e.exec_id)
            events.append(
                (e.seq, AuditEvent("execute", e.tick, e.block_height, e.tester, e.tx_hash))
            )
    for fb in state.feedbacks:
        if fb.subject == case_id or fb.subject in exec_ids:
            events.append(
                (fb.seq, AuditEvent("feedback", fb.tick, fb.block_height, fb.author, fb.tx_hash))
            )
    contract = state.acceptance_tests.get(case.acceptance_contract)
    if contract is not None and contract.is_test_completed:
        # settlement has no registry seq; order it after everything at its height
        events.append(
            (
                state.next_seq + 1,
                AuditEvent(
                    "settle",
                    contract.completed_tick,
                    contract.completed_height,
                    contract.developer,
                    contract.completed_tx_hash,
                ),
            )
        )
    events.sort(key=lambda pair: (pair[1].block_height, pair[1].tick, pair[0]))
    return [ev for _, ev in events]


class ArtifactStore:
    """Flat content-addressed directory; file name = lowercase hex digest."""

    def __init__(self, root: Path):
        self.root = Path(root)  # made by the first put, so a read creates nothing

    def put(self, data: bytes) -> bytes:
        """Store `data` under its digest. A file holding those bytes is kept
        and its directory fsynced, for a rename of another process; a missing
        or torn one is replaced whole (`replace_file`)."""
        digest = hash256(data)
        path = self.root / digest.hex()
        try:
            if hash256(path.read_bytes()) == digest:
                fsync_dir(self.root)
                return digest
        except OSError:  # missing, or unreadable: replaced below
            pass
        self.root.mkdir(parents=True, exist_ok=True)
        replace_file(path, data)
        return digest

    def get(self, digest: bytes) -> bytes:
        path = self.root / digest.hex()
        if not path.exists():
            raise FileNotFoundError(digest.hex())
        data = path.read_bytes()
        if hash256(data) != digest:
            raise ValueError(f"artifact {digest.hex()} fails its digest")
        return data
