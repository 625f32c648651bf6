"""Attention-based knowledge graph embeddings over relation and attribute triples.

The model propagates entity embeddings along outgoing edges with learned
multi-head attention, encodes textual attribute values into the same
space, and scores triples by translation distance. Training covers link
prediction (margin hinge loss with filtered negative sampling) and entity
classification (per-class binary cross-entropy); evaluation reports raw
and filtered Mean Rank / Hits@k, and classification accuracy.
"""

from .errors import (
    ConfigError, DomainError, IntegrityError, KaneError, ParseError,
    SamplingError, ShapeError, TrainingError,
)
from .kgdata import (
    AttributeTriple, DatasetSplit, GraphView, KnowledgeGraph, Neighbor,
    RelationTriple, generate_synthetic_kg, parse_attribute_triples,
    parse_labels, parse_relation_triples,
)
from .model import ModelConfig, ModelParams, forward_all, init_params
from .training import TrainConfig, TrainReport, train
from .evaluation import evaluate_classification, evaluate_completion

__version__ = "0.1.0"
