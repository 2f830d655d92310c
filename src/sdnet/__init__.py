"""Toolkit for signed and directed networks.

Synthetic block-model generators, spectral operators (signed, magnetic,
Hermitian-imbalance Laplacians), node/link splitters, clustering and
link-prediction metrics, and deterministic experiment pipelines.
"""

from .cluster import cluster_embedding, spectral_cluster, spectral_embedding
from .generators import (BlockSizes, GeneratedInstance, MetaGraph, block_sizes,
                         custom_meta, dsbm, erdos_renyi, f1_meta, f2_meta,
                         meta_graph, pol_ssbm, sdsbm, ssbm)
from .graph import (FeatureMatrix, SignedDirectedGraph,
                    hermitian_spectral_features, is_directed, is_signed,
                    largest_weakly_connected_component, signed_degree_features,
                    signed_spectral_features)
from .logistic import Design, LogisticModel, logistic_train
from .metrics import (MetricReport, SoftAssignment, accuracy, ari, auc,
                      balanced_triangle_ratio, macro_f1, pbnc_loss,
                      prob_imbalance, unhappy_ratio)
from .pipeline import (RunRecord, RunResult, cluster_sweep, generate_from_params,
                       linkpred_run)
from .spectral import (EigenPairs, NumericError, SpectralMatrix, eigh,
                       hermitian_imbalance, magnetic_laplacian,
                       normalized_laplacian, signed_laplacian,
                       signed_magnetic_laplacian)
from .splitters import (LinkTaskSplit, NodeSplit, link_class_split, node_split,
                        spanning_forest)

__version__ = "0.1.0"

__all__ = [
    "BlockSizes", "Design", "EigenPairs", "FeatureMatrix", "GeneratedInstance",
    "LinkTaskSplit", "LogisticModel", "MetaGraph", "MetricReport", "NodeSplit",
    "NumericError", "RunRecord", "RunResult", "SignedDirectedGraph",
    "SoftAssignment", "SpectralMatrix", "accuracy", "ari", "auc",
    "balanced_triangle_ratio", "block_sizes", "cluster_embedding",
    "cluster_sweep", "custom_meta", "dsbm", "eigh", "erdos_renyi", "f1_meta",
    "f2_meta", "generate_from_params", "hermitian_imbalance",
    "hermitian_spectral_features", "is_directed", "is_signed",
    "largest_weakly_connected_component", "link_class_split", "linkpred_run",
    "logistic_train", "macro_f1", "magnetic_laplacian", "meta_graph",
    "node_split", "normalized_laplacian", "pbnc_loss", "pol_ssbm",
    "prob_imbalance", "sdsbm", "signed_degree_features", "signed_laplacian",
    "signed_magnetic_laplacian",
    "signed_spectral_features", "spanning_forest", "spectral_cluster",
    "spectral_embedding", "ssbm", "unhappy_ratio",
]
