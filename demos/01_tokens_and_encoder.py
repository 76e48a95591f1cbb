"""From raster to tokens to one encoder pass.

Walks the front half of the stack: cut an image into patches, embed
them into position-aware tokens, run an encoder block, and peek at an
attention map.
"""

import numpy as np

from prato import encode_tokens, init_block_weights, make_embedder, patchify, tokenize_image
from prato.encoder import attention_map
from prato.tokens import row_major_index_map
from prato.synth import generate_scene

scene = generate_scene("ellipse", size=64, seed=1)
print(f"scene: {scene.image.shape} image, target covers "
      f"{scene.truth.mean():.1%} of pixels, tight box {scene.tight_box.to_dict()}")

# 64x64 image with 16px patches -> 4x4 grid of 16 tokens
patches = patchify(scene.image, patch_size=16)
print(f"patchify: {patches.shape[0]} patches of {patches.shape[1]} values each")

embedder = make_embedder(channels=1, patch_size=16, width=64, grid_h=4, grid_w=4, seed=0)
grid = tokenize_image(scene.image, embedder, patch_size=16)
print(f"tokens: {grid.tokens.shape}, grid {grid.grid_h}x{grid.grid_w}")
print(f"first token coordinates: {row_major_index_map(grid.grid_h, grid.grid_w)[:5].tolist()} ...")

# a zero-weight block is the identity (the residual path carries everything)
identity = encode_tokens(grid.tokens, init_block_weights(64, 4, std=0.0))
print(f"zero-weight block changes nothing: {np.array_equal(identity, grid.tokens)}")

weights = init_block_weights(width=64, heads=4, seed=2)
encoded = encode_tokens(grid.tokens, weights)
delta = np.abs(encoded - grid.tokens).mean()
print(f"random block perturbs tokens by {delta:.3f} on average (residual dominates)")

attn = attention_map(grid, weights, head=0)
print(f"head 0 attention rows sum to 1: {np.allclose(attn.sum(axis=1), 1.0)}")
print("attention of token 0 over the grid:")
for row in attn[0].reshape(4, 4):
    print("   " + " ".join(f"{v:.3f}" for v in row))
