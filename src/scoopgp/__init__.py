"""Few-shot terrain scooping with deep-kernel Gaussian process reward models.

A reward model is a neural feature extractor feeding two heads: a mean
network covering behavior shared across materials, and a kernel embedding
whose RBF distances drive exact GP posterior updates from a handful of
on-terrain scoops. CoDeGa training fits one mean per material fold with
that fold held out, fits the kernel to those means' residuals on their
held-out folds, and pairs it with a mean fit on all folds; the decision
loop scores a fixed action grid by UCB and scoops until one reward clears
the terrain's threshold.
"""

import os

# SCOOPGP_THREADS caps the BLAS thread pools. BLAS sizes its pools when numpy
# is first imported, which the submodule imports below do, so the cap is
# applied here; an explicit OMP_NUM_THREADS etc. still wins.
if os.environ.get("SCOOPGP_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["SCOOPGP_THREADS"])

from .bench import (DeployReport, MaeReport, eval_kshot_mae, eval_simulated_deployment,
                    mean_model_mae, paired_sign_test)
from .config import BenchConfig, GenConfig, ModelConfig, RunConfig, TrainConfig, load_config
from .decide import SCORER_KINDS, UCB_GAMMA, run_deployment
from .errors import (ConfigError, IngestError, NumericalError, ScoopGpError, SelectionError,
                     SerializationError, ShapeError)
from .gp import DeepGpModel, checkpoint_id, load_model, nlml, nlml_grad, posterior_batch, save_model
from .meta import CodegaResult, ModelResult, train_codega, train_dkmt, train_mean, train_mean_only
from .nnet import NetworkSpec, ParamVector, init_params
from .tasks import (Material, MaterialPool, TaskDataset, TerrainTask, enumerate_action_grid,
                    generate_materials, generate_task, read_database, reward_oracle,
                    sample_ood_test_family, sample_task_family, write_database)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "CodegaResult", "ConfigError", "DeepGpModel",
    "DeployReport", "GenConfig", "IngestError", "MaeReport",
    "Material", "MaterialPool", "ModelConfig", "ModelResult", "NetworkSpec", "NumericalError",
    "ParamVector", "RunConfig", "ScoopGpError",
    "SCORER_KINDS", "SelectionError", "SerializationError", "ShapeError",
    "TaskDataset", "TerrainTask", "TrainConfig", "UCB_GAMMA", "checkpoint_id",
    "enumerate_action_grid", "eval_kshot_mae", "eval_simulated_deployment",
    "generate_materials", "generate_task", "load_config",
    "load_model", "mean_model_mae", "nlml", "nlml_grad",
    "paired_sign_test", "posterior_batch", "read_database",
    "reward_oracle", "run_deployment", "sample_ood_test_family", "sample_task_family",
    "save_model", "train_codega", "train_dkmt", "train_mean", "train_mean_only",
    "write_database", "init_params",
]
