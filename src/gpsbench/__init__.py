"""Grid-based patch sampling for memory-constrained online replay.

A pixel budget that would hold K full images instead holds K*f*f compact
surrogates, each formed by keeping one random pixel per f x f patch of the
source image.  Replay tiles f*f same-class surrogates back into a
full-resolution training image; NCM inference embeds each surrogate at its
own resolution, which equals embedding it upsampled by pixel repetition.
"""

__version__ = "0.1.0"
