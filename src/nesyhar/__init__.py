"""Knowledge-constrained training and evaluation of context-aware human
activity classifiers.

The package couples a declarative rule engine over context predicates with a
small numpy network core, and offers four classification strategies: a purely
data-driven baseline, training-time knowledge infusion through consistency
penalties on the loss, consistency vectors as extra network inputs, and
post-hoc refinement of the output distribution.
"""

from .context import DiscretizationConfig, RawContextRecord, aggregate_context
from .data import (
    Annotation,
    EncodedDataset,
    SensorStream,
    SyntheticConfig,
    UserDataset,
    Windows,
    downsample_training,
    encode_user_datasets,
    encode_windows,
    generate_synthetic,
    load_dataset,
    segment,
    write_dataset,
)
from .evaluation import (
    ExperimentReport,
    FoldPlan,
    confidence_interval,
    grid_search_alpha,
    macro_f1,
    make_folds,
    run_experiment,
    write_report,
)
from .knowledge import (
    ContextPredicate,
    ContextState,
    ContextVocabulary,
    KnowledgeModel,
    RuleFileError,
    load_knowledge,
    parse_knowledge,
)
from .losses import LossConfig
from .nn import (
    AdamState,
    BranchSpec,
    NetworkSpec,
    adam_step,
    backward,
    build_network,
    forward,
    run_gradient_check_suite,
)
from .strategies import (
    StrategyConfig,
    TrainConfig,
    TrainedModel,
    load_model,
    predict,
    predict_many,
    refine,
    save_model,
    train,
)

__version__ = "0.1.0"
