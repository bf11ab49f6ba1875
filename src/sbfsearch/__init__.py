"""Privacy-preserving searchable meta-record store.

Clients build obfuscated Bloom-filter indexes over sealed personal meta
records; a server holds an array of bounded buffers supporting keyword-
and location-scoped retrieval by buffer intersection, with add/remove
and conjunctive queries. The analysis and simulation modules evaluate
the scheme's privacy probabilities and capacity requirements.
"""

from .crypto import MetaInfo, SealedRecord, open_record, seal_record, token_from_text
from .filters import BitFilter
from .index import (
    MasterSecrets,
    RemovalRequest,
    UploadPacket,
    UserIndex,
    UserKeyring,
    build_conjunctive_query,
    build_removal_request,
    build_user_index,
    generate_master_secrets,
    make_upload_packet,
    register_user,
)
from .params import SystemParams, derive_params, expected_distinct_positions, load_params_file
from .store import StorageBloomFilter

__version__ = "0.1.0"

__all__ = [
    "BitFilter",
    "MasterSecrets",
    "MetaInfo",
    "RemovalRequest",
    "SealedRecord",
    "StorageBloomFilter",
    "SystemParams",
    "UploadPacket",
    "UserIndex",
    "UserKeyring",
    "build_conjunctive_query",
    "build_removal_request",
    "build_user_index",
    "derive_params",
    "expected_distinct_positions",
    "generate_master_secrets",
    "load_params_file",
    "make_upload_packet",
    "open_record",
    "register_user",
    "seal_record",
    "token_from_text",
    "__version__",
]
