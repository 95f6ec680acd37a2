"""Synthetic workloads: file mutators, content generators, versioned
corpus, and the adversarial edit processes (InDel, replica-sync) the
fleet campaign and fuzz suites sweep."""

from .corpus import (
    Corpus,
    PackageSpec,
    VersionPair,
    default_package_specs,
)
from .indel import (
    ADVERSARIAL_GENERATORS,
    InDelProcess,
    ReplicaSyncProcess,
    indel_arbitrary,
    indel_random,
    replica_sync,
)
from .mutators import (
    CHURN_PROFILE,
    MUTATORS,
    STABLE_PROFILE,
    MutationProfile,
    mutate,
)
from .sources import GENERATORS, make_binary_blob, make_changelog, make_source_file
from .web import WebSite, fetch_sequence

__all__ = [
    "ADVERSARIAL_GENERATORS",
    "CHURN_PROFILE",
    "Corpus",
    "GENERATORS",
    "InDelProcess",
    "MUTATORS",
    "MutationProfile",
    "PackageSpec",
    "ReplicaSyncProcess",
    "STABLE_PROFILE",
    "VersionPair",
    "WebSite",
    "fetch_sequence",
    "default_package_specs",
    "indel_arbitrary",
    "indel_random",
    "make_binary_blob",
    "make_changelog",
    "make_source_file",
    "mutate",
    "replica_sync",
]
