// The backward pass of a non-overlapping max pool, alone or after a ReLU
// (nn::MaxPool2d and the nn::Sequential ReLU -> MaxPool2d peephole).
//
// The pool routes each output gradient g to its window's argmax: the
// first strict maximum in (di, dj) order, where a NaN never wins and a
// window nothing beats (all NaN or -inf) routes to its first element. No
// argmax is stored; the kernel recomputes it from the pool's input and
// writes 0 + g there and +0 everywhere else — bitwise a scatter of g into
// a zero-filled gradient, -0 gradients included.
//
// After a ReLU the kernel reads the ReLU's entry e instead (its input, or
// its output when a conv fused it): the pool's input is relu(e), and the
// ReLU then keeps the gradient only where e > 0 or e is NaN. So the
// argmax is taken over relu(e), and 0 + g is written only where the ReLU
// passes it: bitwise the pool's backward followed by the ReLU's.
//
// Window 2 runs at the host's vector width (see src/tensor/CMakeLists.txt;
// it only compares, masks, shuffles and adds +0, so no contraction choice
// can change a bit); other windows run a scalar loop.
#pragma once

#include <cstddef>

namespace adv {

/// x and dx are `planes` channel planes of [h, w], g the pooled gradient
/// [planes, h/window, w/window]; window divides h and w. dx is fully
/// overwritten. With after_relu, x is the ReLU's entry and dx the
/// gradient with respect to the ReLU's input.
void max_pool_backward(const float* x, const float* g, std::size_t planes,
                       std::size_t h, std::size_t w, std::size_t window,
                       bool after_relu, float* dx);

}  // namespace adv
