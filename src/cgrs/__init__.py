"""Certainty-guided reflection suppression.

A backend-agnostic decoding controller that probes a model's tentative final
answer at reasoning checkpoints, converts answer-token entropy into a
certainty score, and probabilistically masks reflection-trigger tokens
("Wait", "But", ...) so chains of thought get shorter without changing the
final answers.
"""

from .backend import (
    BackendCapabilities,
    BackendError,
    EmissionRule,
    ModelBackend,
    RemoteBackend,
    RetryableBackendError,
    ToyBackend,
    ToyModelSpec,
    UnsupportedOperationError,
    ban_bias,
    overthinking_spec,
    reconstruct_distribution,
)
from .certainty import CertaintyScore, TokenDistribution, certainty_score, token_entropy
from .controller import (
    CheckpointDetector,
    DecodeTrace,
    GenerationConfig,
    GenerationSession,
    ModeSpec,
    ProbeEmptyError,
    ProbeResult,
    generate,
    run_probe,
)
from .harness import (
    ExtractionError,
    Problem,
    RunReport,
    extract_boxed_answer,
    length_reduction,
    load_dataset,
    run_benchmark,
    score,
    write_reports,
)
from .lexicon import (
    TriggerCategory,
    TriggerTokenSet,
    TriggerWord,
    Vocabulary,
    build_from_traces,
    build_trigger_set,
    default_trigger_words,
    expand_variants,
)
from .suppression import (
    mask_triggers,
    should_suppress,
    suppression_probability,
)

__version__ = "0.1.0"

__all__ = [
    "BackendCapabilities",
    "BackendError",
    "CertaintyScore",
    "CheckpointDetector",
    "DecodeTrace",
    "EmissionRule",
    "ExtractionError",
    "GenerationConfig",
    "GenerationSession",
    "ModeSpec",
    "ModelBackend",
    "Problem",
    "ProbeEmptyError",
    "ProbeResult",
    "RemoteBackend",
    "RetryableBackendError",
    "RunReport",
    "TokenDistribution",
    "ToyBackend",
    "ToyModelSpec",
    "TriggerCategory",
    "TriggerTokenSet",
    "TriggerWord",
    "UnsupportedOperationError",
    "Vocabulary",
    "ban_bias",
    "build_from_traces",
    "build_trigger_set",
    "certainty_score",
    "default_trigger_words",
    "expand_variants",
    "extract_boxed_answer",
    "generate",
    "length_reduction",
    "load_dataset",
    "mask_triggers",
    "overthinking_spec",
    "reconstruct_distribution",
    "run_benchmark",
    "run_probe",
    "score",
    "should_suppress",
    "suppression_probability",
    "token_entropy",
    "write_reports",
]
