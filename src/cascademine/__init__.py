"""cascademine: influence-cascade mining and growth prediction.

Pipeline: ingest review/tip event logs constrained by a friendship graph,
build per-business influence cascades, census their topologies, fit the size
distribution, and predict long vs short cascades from the first k events.
"""

from cascademine.cascades import Cascade, CityCascades, build_cascades, cascade_summary
from cascademine.census import TopologySignature, bucket_purity, is_isomorphic, signature
from cascademine.features import FEATURE_NAMES, FeatureExtractor, balance, label_cascades
from cascademine.ingest import (EVENT_DTYPE, DatasetPaths, EventKind, IngestResult, Profiles,
                                ingest_dataset, yearly_activity_counts)
from cascademine.learner import (CrossValReport, GbdtModel, LogRegModel, cross_validate,
                                 feature_importance, train_gbdt, train_logreg)
from cascademine.social import SocialGraph, build_graph
from cascademine.stats import (PowerLawFit, export_dot, fit_power_law, longest_cascades,
                               size_distribution)
from cascademine.synth import SynthConfig, generate_synthetic

__version__ = "0.1.0"
