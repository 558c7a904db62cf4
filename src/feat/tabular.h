#pragma once
// Tabular (Euclidean) modality: code-branching features extracted from the
// RTL AST, reimplementing the intent of the Trust-Hub RTL feature dataset
// (Salmani et al., "code branching features"). One fixed-length vector per
// module; layout documented by tabular_feature_names().
//
// Branch-shape features dominate because RTL Trojans hide behind rarely
// taken branches: an `if (state == 24'hBAD5EED)` adds an equality compare
// against a wide constant, one more conditional assignment, and a deeper
// nest — all visible here without simulation.
//
// The extractor reads the arena AST (fast_ast.h), where operator
// classification is a PunctId table lookup. It writes into a caller buffer
// and allocates nothing in steady state.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "verilog/fast_ast.h"

namespace noodle::feat {

inline constexpr std::size_t kTabularFeatureDim = 32;

/// Reusable scratch (the distinct-constant pool). Grow-only, one per thread.
struct TabularScratch {
  std::vector<std::uint64_t> consts;
};

/// Extracts the feature vector of one module into `out` (size
/// kTabularFeatureDim).
void tabular_features(const verilog::fast::Module& m, std::span<double> out,
                      TabularScratch& scratch);

/// Name of each dimension (size kTabularFeatureDim).
const std::vector<std::string>& tabular_feature_names();

}  // namespace noodle::feat
