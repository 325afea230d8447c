// Numerical gradient checking helper for the tensor library tests.

#ifndef DOT_TESTS_GRADCHECK_H_
#define DOT_TESTS_GRADCHECK_H_

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/tensor.h"

namespace dot::testing {

/// Verifies analytic gradients of `fn` (mapping `inputs` to a scalar tensor)
/// against central finite differences. Perturbs every element of every input.
inline void ExpectGradientsMatch(
    std::vector<Tensor> inputs,
    const std::function<Tensor(const std::vector<Tensor>&)>& fn,
    float h = 1e-2f, float rtol = 5e-2f, float atol = 1e-3f) {
  for (auto& t : inputs) {
    t.set_requires_grad(true);
    t.ZeroGrad();  // callers may reuse tensors across checks
  }

  Tensor loss = fn(inputs);
  ASSERT_EQ(loss.numel(), 1) << "gradcheck function must return a scalar";
  loss.Backward();

  std::vector<std::vector<float>> analytic;
  analytic.reserve(inputs.size());
  for (auto& t : inputs) {
    analytic.push_back(t.has_grad() ? t.grad_vec() : std::vector<float>(t.numel(), 0.f));
  }

  NoGradGuard guard;
  for (size_t ti = 0; ti < inputs.size(); ++ti) {
    Tensor& t = inputs[ti];
    for (int64_t i = 0; i < t.numel(); ++i) {
      float orig = t.at(i);
      t.at(i) = orig + h;
      float up = fn(inputs).item();
      t.at(i) = orig - h;
      float down = fn(inputs).item();
      t.at(i) = orig;
      float numeric = (up - down) / (2.0f * h);
      float got = analytic[ti][static_cast<size_t>(i)];
      float tol = atol + rtol * std::fabs(numeric);
      EXPECT_NEAR(got, numeric, tol)
          << "input " << ti << " element " << i;
    }
  }
}

}  // namespace dot::testing

#endif  // DOT_TESTS_GRADCHECK_H_
