"""spaqlab: CB-level perceptual quantization (SPAQ) vs a uniform-QP
anchor inside a small transform-coding pipeline for RGB 4:4:4 video."""

from .experiment import ExperimentConfig, gen_synthetic, run
from .video_io import RawFormatError, load_raw, write_raw

__all__ = ["ExperimentConfig", "RawFormatError", "gen_synthetic", "load_raw",
           "run", "write_raw"]
__version__ = "0.1.0"
