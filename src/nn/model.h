#pragma once
// Sequential container plus weight (de)serialization.

#include <iosfwd>

#include "nn/layer.h"

namespace noodle::nn {

class Sequential {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<LayerPtr> layers) : layers_(std::move(layers)) {}

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  /// Read-only view of every parameter buffer, usable on a fitted const
  /// model (serialization reads weights through this).
  std::vector<ConstParamView> const_params() const;

  Matrix forward(const Matrix& input, bool train = false);

  /// Inference-only forward pass. Guaranteed not to mutate the model (every
  /// layer's forward(train=false) path is stateless per the Layer contract),
  /// so concurrent infer() calls on one fitted model are safe. Thin wrapper
  /// over the workspace overload (one private workspace per call).
  Matrix infer(const Matrix& input) const;

  /// Allocation-free inference: runs every layer through forward_into over
  /// the workspace's ping-pong buffers (elementwise layers transform in
  /// place) and returns a reference to the final activation, owned by `ws`
  /// and valid until its next use. Bit-identical to infer(input) at every
  /// batch size. Performs zero heap allocations once `ws` has grown to the
  /// largest batch seen (or was pre-sized with reserve_workspace). The
  /// model may be shared across threads, the workspace may not. `input`
  /// must not alias a buffer of `ws` (throws std::invalid_argument) — to
  /// chain models, copy the previous result out or use a second workspace.
  const Matrix& infer(const Matrix& input, InferenceWorkspace& ws) const;

  /// Pre-sizes `ws` for batches of up to `rows` samples at the given input
  /// width (walks output_cols / scratch_elements across the layer chain),
  /// so even the first infer(input, ws) call allocates nothing.
  void reserve_workspace(InferenceWorkspace& ws, std::size_t rows,
                         std::size_t input_cols) const;

  /// Backward through all layers; returns gradient w.r.t. the input.
  Matrix backward(const Matrix& grad_output);

  void zero_grad();

  std::vector<ParamView> params();

  std::size_t parameter_count() const;

  /// Validates the layer chain for the given input width and returns the
  /// final output width. Throws std::invalid_argument on a shape break.
  std::size_t output_cols(std::size_t input_cols) const;

  std::size_t layer_count() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Saves / restores all parameter buffers as f64 bit patterns (binary
  /// little-endian with a small header), so a round trip is bit-exact.
  /// Architectures must match on load. Saving is a read-only operation, so
  /// a fitted model is saveable through a const reference; a snapshot
  /// archive embeds the weight blob as one section.
  void save_weights(std::ostream& os) const;
  void load_weights(std::istream& is);

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace noodle::nn
