"""EMSim core: model, training, clustering, microbenchmarks, simulator."""

from .ablations import ABLATIONS, all_simulators, make_simulator
from .activity import (average_alpha, stage_flip_counts,
                       stage_transition_matrices)
from .batch import (BatchSimulator, CampaignProbe, campaign_probe_key,
                    measurement_campaign, supervised_campaign)
from .clustering import (ClusterResult, agglomerative_cluster,
                         cluster_instruction_signatures,
                         signature_distance, signature_distance_matrix)
from .config import EMSimConfig, FULL_MODEL, ModelSwitches
from .factors import (ActivityFactorModel, AverageActivity,
                      RegressionActivity, UnitActivity)
from .microbench import (CLASS_MEMBERS, REPRESENTATIVES, all_combinations,
                         combination_group, coverage_groups,
                         double_load_probe, isolation_probe, pair_probe,
                         probe_instruction_seq, repeat_probe,
                         warmed_branch_probe)
from .model import EMSimModel
from .persistence import (load_model, model_from_dict, model_to_dict,
                          save_model)
from .regression import (GramCache, LinearModel, RobustFitInfo, fit_full,
                         fit_linear, fit_robust, fit_trimmed, irls_solve,
                         mad_outlier_mask, stepwise_select)
from .simulator import EMSim, SimulatedSignal
from .trace_cache import (CacheStats, TraceCache, configure_trace_cache,
                          get_trace_cache, trace_cache_disabled, trace_key)
from .training import (Trainer, TrainingReport, fit_beta, fit_kernel,
                       train_emsim)

__all__ = [
    "ABLATIONS",
    "ActivityFactorModel",
    "AverageActivity",
    "BatchSimulator",
    "CLASS_MEMBERS",
    "CacheStats",
    "CampaignProbe",
    "ClusterResult",
    "EMSim",
    "EMSimConfig",
    "EMSimModel",
    "FULL_MODEL",
    "GramCache",
    "LinearModel",
    "ModelSwitches",
    "REPRESENTATIVES",
    "RegressionActivity",
    "RobustFitInfo",
    "SimulatedSignal",
    "TraceCache",
    "Trainer",
    "TrainingReport",
    "UnitActivity",
    "agglomerative_cluster",
    "all_combinations",
    "all_simulators",
    "average_alpha",
    "campaign_probe_key",
    "cluster_instruction_signatures",
    "combination_group",
    "configure_trace_cache",
    "coverage_groups",
    "double_load_probe",
    "fit_beta",
    "fit_full",
    "fit_kernel",
    "fit_linear",
    "fit_robust",
    "fit_trimmed",
    "get_trace_cache",
    "irls_solve",
    "isolation_probe",
    "load_model",
    "mad_outlier_mask",
    "make_simulator",
    "measurement_campaign",
    "supervised_campaign",
    "model_from_dict",
    "model_to_dict",
    "pair_probe",
    "save_model",
    "probe_instruction_seq",
    "repeat_probe",
    "warmed_branch_probe",
    "signature_distance",
    "signature_distance_matrix",
    "stage_flip_counts",
    "stage_transition_matrices",
    "stepwise_select",
    "trace_cache_disabled",
    "trace_key",
    "train_emsim",
]
