"""Grid-based patch sampling for memory-constrained online replay.

A pixel budget that would hold K full images instead holds K*f*f compact
surrogates, each formed by keeping one random pixel per f x f patch of the
source image.  Replay trains on each drawn surrogate at its own resolution,
through a first layer pooled over each f x f block, which equals training
on it upsampled by pixel repetition; NCM inference embeds each surrogate
the same way.  `sampler.upsample` is that reassembly law and the tests'
oracle.
"""

__version__ = "0.1.0"
