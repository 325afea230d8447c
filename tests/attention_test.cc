// Focused tests for the attention key-bias masking semantics that the
// MViT/ViT equivalence (paper Fig. 7) rests on.

#include <gtest/gtest.h>

#include "tensor/nn.h"
#include "tensor/ops.h"

namespace dot {
namespace {

TEST(AttentionMask, MaskedKeysDoNotInfluenceOutputs) {
  Rng rng(1);
  nn::MultiheadAttention att(8, 2, &rng);
  NoGradGuard guard;
  // Sequence of 4; mask out positions 2 and 3.
  Tensor x = Tensor::Randn({1, 4, 8}, &rng);
  std::vector<float> bias = {0.0f, 0.0f, -1e9f, -1e9f};
  Tensor masked = att.Forward(x, &bias);

  // Changing the masked positions' content must not change the outputs at
  // the unmasked positions.
  Tensor x2 = x.Clone();
  for (int64_t j = 0; j < 8; ++j) {
    x2.at(2 * 8 + j) += 5.0f;
    x2.at(3 * 8 + j) -= 3.0f;
  }
  Tensor masked2 = att.Forward(x2, &bias);
  for (int64_t pos : {0, 1}) {
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(masked.at(pos * 8 + j), masked2.at(pos * 8 + j), 1e-5)
          << "pos " << pos << " dim " << j;
    }
  }
}

TEST(AttentionMask, MaskedAttentionEqualsPackedAttention) {
  // Full-sequence attention with masked keys at positions {1, 3} must match
  // attention over the packed subsequence {0, 2} — the exact property MViT
  // exploits (Fig. 7b).
  Rng rng1(2), rng2(2);
  nn::MultiheadAttention full(8, 2, &rng1);
  nn::MultiheadAttention packed(8, 2, &rng2);  // identical weights
  NoGradGuard guard;
  Tensor x = Tensor::Randn({1, 4, 8}, &rng1);
  std::vector<float> bias = {0.0f, -1e9f, 0.0f, -1e9f};
  Tensor full_out = full.Forward(x, &bias);

  Tensor sub = Rows(Reshape(x, {4, 8}), {0, 2});
  Tensor packed_out = packed.Forward(Reshape(sub, {1, 2, 8}));

  // full positions 0, 2 correspond to packed positions 0, 1.
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(full_out.at(0 * 8 + j), packed_out.at(0 * 8 + j), 1e-4);
    EXPECT_NEAR(full_out.at(2 * 8 + j), packed_out.at(1 * 8 + j), 1e-4);
  }
}

TEST(AttentionMask, ZeroBiasIsIdentityToNoBias) {
  Rng rng(3);
  nn::MultiheadAttention att(8, 2, &rng);
  NoGradGuard guard;
  Tensor x = Tensor::Randn({2, 3, 8}, &rng);
  std::vector<float> zero_bias(3, 0.0f);
  Tensor a = att.Forward(x);
  Tensor b = att.Forward(x, &zero_bias);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a.at(i), b.at(i));
}

TEST(AttentionMask, GradFlowsOnlyThroughUnmaskedKeys) {
  Rng rng(4);
  nn::MultiheadAttention att(4, 1, &rng);
  Tensor x = Tensor::Randn({1, 3, 4}, &rng).set_requires_grad(true);
  std::vector<float> bias = {0.0f, -1e9f, 0.0f};
  // Loss over the unmasked outputs only.
  Tensor out = att.Forward(x, &bias);
  Tensor keep = Rows(Reshape(out, {3, 4}), {0, 2});
  Mean(Square(keep)).Backward();
  // The masked position's value pathway receives (numerically) zero
  // attention weight; its gradient comes only from its own query/out path,
  // which we excluded — so position 1's grad must be ~0 through V.
  // (Query/key projections of pos 1 still matter via softmax normalization
  // of other rows? No: its key is -inf so its weight is exactly 0 and the
  // softmax gradient through it is 0.)
  const auto& g = x.grad_vec();
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(g[static_cast<size_t>(1 * 4 + j)], 0.0f, 1e-6);
  }
}

}  // namespace
}  // namespace dot
