"""Framebuffer: the RGB image a render produces, plus blending bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Framebuffer:
    """An RGB float framebuffer with per-pixel transmittance tracking.

    Attributes
    ----------
    color:
        ``(height, width, 3)`` accumulated RGB in [0, 1].
    transmittance:
        ``(height, width)`` remaining transmittance ``T``; rasterization
        stops refining a pixel when ``T`` falls below the termination
        threshold (paper stage 4).
    """

    width: int
    height: int
    background: tuple[float, float, float] = (0.0, 0.0, 0.0)
    color: np.ndarray = field(init=False)
    transmittance: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("framebuffer dimensions must be positive")
        self.color = np.zeros((self.height, self.width, 3), dtype=np.float64)
        self.transmittance = np.ones((self.height, self.width), dtype=np.float64)

    def finalize(self) -> np.ndarray:
        """Composite the background under the remaining transmittance.

        Each channel of the output is first ``T * bg[ch]``, then the color is
        added and the sum clipped in place: no broadcast temporaries, and the
        same bits as ``clip(color + T * bg)`` since addition commutes.
        """
        bg = np.asarray(self.background, dtype=np.float64)
        out = np.empty_like(self.color)
        for ch in range(3):
            np.multiply(self.transmittance, bg[ch], out=out[..., ch])
        out += self.color
        return np.clip(out, 0.0, 1.0, out=out)

    @property
    def num_pixels(self) -> int:
        """Total pixel count."""
        return self.width * self.height
