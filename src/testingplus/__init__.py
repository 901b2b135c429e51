"""TestingPlus: a permissioned ledger for the distributed software-testing
life cycle — escrowed acceptance contracts, an on-chain test registry,
proof-of-authority consensus over a simulated network, and a metrics
harness."""

import importlib

from .block import (
    Block,
    BlockHeader,
    MerkleProof,
    build_block,
    merkle_proof,
    merkle_root,
    verify_merkle_proof,
)
from .chain import (
    Chain,
    ChainStore,
    CorruptChainError,
    GenesisConfig,
    ValidatorSet,
    verify_chain,
)
from .codec import hash256
from .keys import address_from_pubkey, generate_keypair
from .state import WorldState
from .tx import Transaction, sign_transaction, verify_transaction
from .vm import Receipt, apply_transaction
from .workflow import (
    ArtifactStore,
    AuditEvent,
    CompensationStatement,
    audit_trail,
    compute_compensation,
)

__all__ = [
    "Block",
    "BlockHeader",
    "MerkleProof",
    "build_block",
    "merkle_proof",
    "merkle_root",
    "verify_merkle_proof",
    "Chain",
    "ChainStore",
    "CorruptChainError",
    "GenesisConfig",
    "ValidatorSet",
    "proposer_for",
    "verify_chain",
    "hash256",
    "address_from_pubkey",
    "generate_keypair",
    "MetricsReport",
    "SweepSpec",
    "analyze",
    "run_sweep",
    "SimScenario",
    "SimTrace",
    "run_simulation",
    "WorldState",
    "Transaction",
    "sign_transaction",
    "verify_transaction",
    "Receipt",
    "apply_transaction",
    "ArtifactStore",
    "AuditEvent",
    "CompensationStatement",
    "audit_trail",
    "compute_compensation",
]

# The simulator, the metrics harness and the consensus they drive are imported
# on first use, so that CLI commands which never simulate do not load them.
_LAZY = {
    "MetricsReport": "metrics",
    "SweepSpec": "metrics",
    "analyze": "metrics",
    "run_sweep": "metrics",
    "SimScenario": "sim",
    "SimTrace": "sim",
    "run_simulation": "sim",
    "proposer_for": "consensus",
    "consensus": "consensus",
    "metrics": "metrics",
    "sim": "sim",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = module = importlib.import_module(f"{__name__}.{module_name}")
    if name != module_name:
        value = getattr(module, name)
    globals()[name] = value
    return value
