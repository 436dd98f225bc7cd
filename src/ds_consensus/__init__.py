"""Consensus and opinion-cluster simulation for networked agents whose
opinions are Dempster-Shafer bodies of evidence, updated by conditional
belief mixing under bounded confidence."""

from .dst import (
    BodyOfEvidence,
    Frame,
    jaccard_matrix,
    pairwise_jousselme,
    prop_from_indices,
    prop_from_str,
    prop_to_str,
)
from .graph import (
    DirectedGraph,
    PrunedView,
    erdos_renyi,
    erdos_renyi_connected,
    is_connected,
    prune,
)
from .dynamics import (
    AgentSpec,
    ConfidenceMatrix,
    NetworkState,
    Strategy,
    dirichlet_confidence_matrix,
    dirichlet_step,
    general_step,
    pmf_confidence_matrix,
    pmf_step,
)
from .analysis import (
    ClusterReport,
    DrivenChain,
    classify_chain,
    detect_clusters,
    infinity_norm,
    verify_chain,
)
from .scenario import Scenario, list_assets, load_scenario, sample_opinions
from .runner import BifurcationResult, RunResult, run_simulation, run_sweep, verify_run

__version__ = "0.1.0"
