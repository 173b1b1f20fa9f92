"""Speaker-change detection toolkit.

Two families of segmenters over WAV audio: BIC-scored Gaussian window
sweeps on MFCC features (growing and fixed-size variants), and a fast
pitch-jump pipeline (pitch track, derivative, one threshold that folds in
the paper's gamma correction, BIC verification of candidates). Includes
evaluation metrics and a deterministic synthetic fixture generator.
"""

from .audio_io import AudioBuffer, load_wav, write_wav
from .bic import (
    BicConfig,
    ChangePoint,
    GaussianStats,
    delta_bic,
    detect_fixed,
    detect_growing,
    fit_gaussian,
    penalty,
    verify_change,
)
from .errors import FormatError, PreconditionError, UnsupportedWavError, WavFormatError
from .evaluation import (
    ChangePointSet,
    EvalReport,
    evaluate,
    f_measure,
    match_points,
    read_change_points,
    write_change_points,
)
from .features import FeatureMatrix, MfccConfig, mfcc, mfcc_blocks
from .pitch import PitchConfig, PitchTrack, pitch_frame, pitch_track
from .pitch_seg import (
    SEG_METHODS,
    PitchSegConfig,
    RunConfig,
    SegmentationResult,
    build_method,
    candidates,
    pitch_diff,
    segment,
)
from .synth import SynthSpec, synth_speakers, synth_to_files

__version__ = "0.1.0"

__all__ = [
    "AudioBuffer",
    "BicConfig",
    "ChangePoint",
    "ChangePointSet",
    "EvalReport",
    "FeatureMatrix",
    "FormatError",
    "GaussianStats",
    "MfccConfig",
    "PitchConfig",
    "PitchSegConfig",
    "PitchTrack",
    "PreconditionError",
    "RunConfig",
    "SEG_METHODS",
    "SegmentationResult",
    "SynthSpec",
    "UnsupportedWavError",
    "WavFormatError",
    "build_method",
    "candidates",
    "delta_bic",
    "detect_fixed",
    "detect_growing",
    "evaluate",
    "f_measure",
    "fit_gaussian",
    "load_wav",
    "match_points",
    "mfcc",
    "mfcc_blocks",
    "penalty",
    "pitch_diff",
    "pitch_frame",
    "pitch_track",
    "read_change_points",
    "segment",
    "synth_speakers",
    "synth_to_files",
    "verify_change",
    "write_change_points",
    "write_wav",
]
