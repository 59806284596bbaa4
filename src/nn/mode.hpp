// Forward-pass mode shared by every layer and model.
#pragma once

namespace adv::nn {

/// No layer behaves differently at train time (there is no dropout), so
/// the mode only says whether a pass records. An Eval forward records
/// into a caller-owned tape (nn/tape.hpp) so a backward may follow:
/// attacks differentiate in Eval, and a training step is an Eval pass
/// whose backward is handed a gradient set (nn/trainer.hpp). Infer is
/// Eval that records nothing (a tape passed with it is left as it was):
/// numerically identical outputs without the recording copies. Use it for
/// forward-only passes (candidate scoring inside attacks, prediction,
/// detector scoring).
enum class Mode { Eval, Infer };

}  // namespace adv::nn
