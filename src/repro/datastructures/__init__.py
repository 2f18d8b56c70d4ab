"""Core data structures: AVL tree, FM gain buckets, heap, pass journal."""

from .avl import AVLTree
from .bucket_list import BucketGainContainer
from .gain_container import (
    GainContainer,
    HeapGainContainer,
    TreeGainContainer,
)
from .heap import AddressablePriorityQueue
from .prefix import MoveRecord, PassJournal

__all__ = [
    "AVLTree",
    "AddressablePriorityQueue",
    "GainContainer",
    "HeapGainContainer",
    "TreeGainContainer",
    "BucketGainContainer",
    "PassJournal",
    "MoveRecord",
]
