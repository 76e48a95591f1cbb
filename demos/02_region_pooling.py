"""Box prompts on the token grid, and what the soft crop actually samples.

Shows why the prompt cannot simply select whole tokens: a normalized
box usually lands between cell boundaries, so the region feature is
built from bilinear samples inside the box instead.
"""

import numpy as np

from prato import BoxPrompt, map_box_to_grid, roi_align
from prato.tokens import TokenGrid

# an 8x8 feature grid whose single channel encodes the cell's x-center
fmap = np.zeros((8, 8, 1))
for j in range(8):
    fmap[:, j, 0] = j + 0.5
grid = TokenGrid(tokens=fmap.reshape(64, 1), grid_h=8, grid_w=8)

box = BoxPrompt(0.22, 0.31, 0.68, 0.79)
gbox = map_box_to_grid(box, grid_h=8, grid_w=8)
print(f"normalized box {box.to_dict()}")
print(f"lands on grid coordinates ({gbox.x1:.2f}, {gbox.y1:.2f}) .. ({gbox.x2:.2f}, {gbox.y2:.2f})")
print("the edges cut through cells, so hard token selection would misalign\n")

region = roi_align(grid, gbox, k=3, sampling_ratio=2)
print(f"pooled region feature: {region.shape} (k*k rows)")
print("bin values on the x-ramp map (each equals the mean sampled x):")
for by in range(3):
    print("   " + " ".join(f"{region[by * 3 + bx, 0]:.3f}" for bx in range(3)))

# pooling a constant map returns the constant, whatever the box
const = TokenGrid(tokens=np.full((64, 1), 0.5), grid_h=8, grid_w=8)
out = roi_align(const, gbox, k=5)
print(f"\nconstant map pools to the constant exactly: {bool(np.all(out == 0.5))}")
