"""The scoring chain, end to end, with the audit trail spelled out.

Region features are compared against every token, the per-row softmax
entropy grades how confidently each region vector picks tokens, and
inverse rank weights fold the confident rows into one relevance score
per token. The retention map printed at the end shows the mask hugging
the prompted target.
"""

import numpy as np

from prato import ThresholdPolicy, make_projections, prato_score
from prato.pipeline import token_in_box_mask
from prato.roi import map_box_to_grid
from prato.synth import generate_scene
from prato.tokens import make_embedder, tokenize_image

scene = generate_scene("blob", size=256, seed=11)
grid_h = grid_w = 16
embedder = make_embedder(1, 16, 64, grid_h, grid_w, seed=0)
grid = tokenize_image(scene.image, embedder, patch_size=16)
proj = make_projections(width=64, d_v=64, seed=0)

bundle = prato_score(grid, scene.tight_box, proj, k=5,
                     policy=ThresholdPolicy("percentile", 75.0))

m, z = bundle.similarity.shape
print(f"similarity map: {m} region vectors x {z} tokens")
print(f"entropies (bits): min {bundle.entropies.min():.2f}, "
      f"max {bundle.entropies.max():.2f}, ceiling log2(Z) = {np.log2(z):.2f}")
print(f"inverse rank weights: sorted -> {np.sort(bundle.weights)[[0, m // 2, m - 1]]}")
print(f"effective threshold (75th percentile of relevance): {bundle.tau_effective:.4f}")
print(f"retained {int(bundle.mask.sum())} of {z} tokens\n")

inb = token_in_box_mask(grid_h, grid_w, map_box_to_grid(scene.tight_box, grid_h, grid_w))
print(f"mean relevance inside the box:  {bundle.relevance[inb].mean():+.4f}")
print(f"mean relevance outside the box: {bundle.relevance[~inb].mean():+.4f}\n")

print("retention map (# kept in box, + kept outside, o dropped in box, . dropped):")
kept = bundle.mask.reshape(grid_h, grid_w).astype(bool)
in_box = inb.reshape(grid_h, grid_w)
glyphs = {(True, True): "#", (True, False): "+", (False, True): "o", (False, False): "."}
for kr, br in zip(kept, in_box):
    print("   " + "".join(glyphs[(bool(k), bool(b))] for k, b in zip(kr, br)))
