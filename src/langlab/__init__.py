"""langlab: desk-scale experiments on learning natural vs. linearly
transformed languages with miniature language models."""

__version__ = "0.1.0"

from .grammar import (  # noqa: F401
    GenerationConfig,
    Grammar,
    RewriteRule,
    Sentence,
    default_grammar,
    generate_corpus,
)
from .transforms import (  # noqa: F401
    NOT_TOKEN,
    TransformKind,
    apply_transform,
    invert_parity_negation,
)
from .tokenizer import (  # noqa: F401
    Vocabulary,
    build_vocabulary,
    encode,
)
from .numcore import Tape, Tensor  # noqa: F401
from .models import (  # noqa: F401
    LstmConfig,
    ModelParameters,
    TransformerConfig,
    init_model,
    lstm_forward,
    transformer_forward,
)
from .training import (  # noqa: F401
    MetricSeries,
    TrainingConfig,
    evaluate_perplexity,
    lr_schedule,
    train,
)
from .stats import (  # noqa: F401
    TTestResult,
    stabilized_window,
    student_t_sf,
    welch_t_test,
)
from .harness import ExperimentSpec, RunReport, run_experiment  # noqa: F401
