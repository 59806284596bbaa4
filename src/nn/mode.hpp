// Forward-pass mode shared by every layer and model.
#pragma once

namespace adv::nn {

/// Train enables train-only behaviour (dropout masks); Eval is the
/// deterministic inference path. Attacks differentiate in Eval. A
/// Train/Eval forward records into a caller-owned tape (nn/tape.hpp) so a
/// backward may follow; Infer is Eval that records nothing (a tape passed
/// with it is left as it was): numerically identical outputs without the
/// recording copies. Use it for forward-only passes (candidate scoring
/// inside attacks, prediction, detector scoring).
enum class Mode { Train, Eval, Infer };

inline constexpr bool is_training(Mode mode) { return mode == Mode::Train; }

}  // namespace adv::nn
