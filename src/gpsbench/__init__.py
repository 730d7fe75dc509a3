"""Grid-based patch sampling for memory-constrained online replay.

A pixel budget that would hold K full images instead holds K*f*f compact
surrogates, each formed by keeping one random pixel per f x f patch of the
source image.  Replay upsamples each drawn surrogate by pixel repetition
into one full-resolution training image; NCM inference embeds each
surrogate at its own resolution, which equals embedding it upsampled.
"""

__version__ = "0.1.0"
