"""ENF extraction and matching with a fast filter-bank Capon estimator."""

__version__ = "0.1.0"

from .signal_io import PcmRecording, SampledSignal, decimate, read_wav
from .track import EnfTrack, read_track, write_track
from .pipeline import PipelineConfig, extract_enf, power_config, speech_config
from .matching import best_lag, correlation, fisher_test

__all__ = [
    "__version__",
    "SampledSignal",
    "PcmRecording",
    "EnfTrack",
    "PipelineConfig",
    "read_wav",
    "decimate",
    "read_track",
    "write_track",
    "extract_enf",
    "power_config",
    "speech_config",
    "best_lag",
    "correlation",
    "fisher_test",
]
