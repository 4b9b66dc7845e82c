"""Word timing estimation from frame-level CTC classifiers.

Core pieces: log-space CTC loss and Viterbi forced alignment (ctc), label
priors for non-peaky training (ctc), peak expansion with guided retargeting
(boundary), frame-wise peak-shifting distillation (pfr), word-timing metrics
(metrics), and a synthetic-corpus trainer that reproduces the training
phenomena at desk scale (synth).
"""

from .boundary import (
    CetcParams,
    WordMap,
    WordTimes,
    cetc_boundaries,
    cetc_guided_targets,
    gridsearch_offset,
    guided_ce_grad,
    words_from_spans,
)
from .ctc import (
    BLANK_ID,
    LabelSequence,
    LogitMatrix,
    NonFiniteError,
    NoValidPathError,
    align_spans,
    apply_label_prior,
    ctc_grad,
    ctc_grad_batch,
    ctc_loss,
    forced_align,
    log_softmax_rows,
    prior_ctc_grad,
    token_spans,
)
from .metrics import (
    MetricsReport,
    PeakHistogram,
    blank_occupancy,
    edit_align,
    edit_distance,
    peak_histogram,
    peak_items,
    timing_metrics,
)
from .pfr import PfrParams, pfr_loss_grad
from .synth import (
    Classifier,
    CorpusSpec,
    SynthUtterance,
    TrainConfig,
    TrainingDivergedError,
    generate_corpus,
    model_backward,
    model_forward,
    pfr_corpus_spec,
    predict_timings,
    split_corpus,
    sweep_gamma,
    sweep_pfr,
    train,
)

__version__ = "0.1.0"
