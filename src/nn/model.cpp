#include "nn/model.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "util/binary_io.h"

namespace noodle::nn {

Matrix Sequential::forward(const Matrix& input, bool train) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->forward(x, train);
  return x;
}

Matrix Sequential::infer(const Matrix& input) const {
  InferenceWorkspace ws;
  return infer(input, ws);  // the return copies out of the workspace
}

const Matrix& Sequential::infer(const Matrix& input, InferenceWorkspace& ws) const {
  if (&input == &ws.ping || &input == &ws.pong) {
    // The ping-pong pass reshapes and overwrites both buffers, so feeding a
    // workspace-owned matrix back in (e.g. chaining two models through one
    // workspace) would silently corrupt it mid-read.
    throw std::invalid_argument(
        "Sequential::infer: input must not alias a workspace buffer — copy the "
        "previous result out, or chain models through separate workspaces");
  }
  const Matrix* cur = &input;
  Matrix* buf = nullptr;  // workspace buffer holding *cur (null: caller's input)
  for (const auto& layer : layers_) {
    if (buf != nullptr && layer->inference_in_place()) {
      layer->forward_into(*buf, *buf, ws);
      continue;
    }
    Matrix* next = buf == &ws.ping ? &ws.pong : &ws.ping;
    layer->forward_into(*cur, *next, ws);
    buf = next;
    cur = next;
  }
  if (buf == nullptr) {
    // Empty model: copy through so the returned reference is always owned
    // by the workspace.
    ws.ping.reshape(input.rows(), input.cols());
    std::copy(input.data().begin(), input.data().end(), ws.ping.data().begin());
    buf = &ws.ping;
  }
  return *buf;
}

void Sequential::reserve_workspace(InferenceWorkspace& ws, std::size_t rows,
                                   std::size_t input_cols) const {
  std::size_t cols = input_cols;
  std::size_t max_cols = 0;  // the buffers only ever hold layer outputs
  std::size_t scratch = 0;
  for (const auto& layer : layers_) {
    scratch = std::max(scratch, layer->scratch_elements(cols));
    cols = layer->output_cols(cols);
    max_cols = std::max(max_cols, cols);
  }
  ws.ping.reshape(rows, max_cols);
  ws.pong.reshape(rows, max_cols);
  ws.scratch_for(scratch);
}

Matrix Sequential::backward(const Matrix& grad_output) {
  Matrix g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<ParamView> Sequential::params() {
  std::vector<ParamView> all;
  for (auto& layer : layers_) {
    for (ParamView p : layer->params()) all.push_back(p);
  }
  return all;
}

std::vector<ConstParamView> Sequential::const_params() const {
  // unique_ptr does not propagate const, so the layers stay mutable here;
  // only read-only views escape.
  std::vector<ConstParamView> all;
  for (const auto& layer : layers_) {
    for (ParamView p : layer->params()) all.push_back({p.values, p.size});
  }
  return all;
}

std::size_t Sequential::parameter_count() const {
  std::size_t count = 0;
  for (ConstParamView p : const_params()) count += p.size;
  return count;
}

std::size_t Sequential::output_cols(std::size_t input_cols) const {
  std::size_t cols = input_cols;
  for (const auto& layer : layers_) cols = layer->output_cols(cols);
  return cols;
}

namespace {
constexpr std::uint64_t kWeightsMagic = 0x4e4f4f444c453031ULL;  // "NOODLE01"
}  // namespace

void Sequential::save_weights(std::ostream& os) const {
  const auto views = const_params();
  util::write_u64(os, kWeightsMagic);
  util::write_u64(os, views.size());
  for (const ConstParamView& p : views) {
    util::write_u64(os, p.size);
    for (std::size_t i = 0; i < p.size; ++i) util::write_f64(os, p.values[i]);
  }
}

void Sequential::load_weights(std::istream& is) {
  std::uint64_t magic = 0;
  try {
    magic = util::read_u64(is);
  } catch (const std::runtime_error&) {
    throw std::runtime_error("load_weights: truncated header");
  }
  if (magic != kWeightsMagic) throw std::runtime_error("load_weights: bad header");
  const std::uint64_t count = util::read_u64(is);
  const auto views = params();
  if (count != views.size()) {
    throw std::runtime_error("load_weights: architecture mismatch (buffer count)");
  }
  for (const ParamView& p : views) {
    if (util::read_u64(is) != p.size) {
      throw std::runtime_error("load_weights: architecture mismatch (buffer size)");
    }
    for (std::size_t i = 0; i < p.size; ++i) p.values[i] = util::read_f64(is);
  }
}

}  // namespace noodle::nn
