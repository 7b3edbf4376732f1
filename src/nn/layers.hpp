#ifndef XFC_NN_LAYERS_HPP
#define XFC_NN_LAYERS_HPP

/// \file layers.hpp
/// The Layer interface of the CNN framework, and its ReLU descriptor.
///
/// Since the graph/autodiff port, a Layer no longer computes anything: it
/// owns parameter storage plus hyperparameters, knows how to (de)serialize
/// itself — the byte format predates the port and is frozen, compressed
/// streams embed exactly these bytes — and appends its ops to a Graph via
/// append(). All execution (forward, derived backward, activation
/// ownership) lives in GraphExec; see graph.hpp.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "io/bytebuffer.hpp"
#include "nn/graph.hpp"

namespace xfc::nn {

/// One named building block of a model: parameter storage + serialization +
/// graph definition. The parameter vectors must stay address-stable while
/// any Graph built from this layer is alive (Graph::param captures them).
class Layer {
 public:
  virtual ~Layer() = default;

  /// Appends this layer's ops to `g` with `x` as input and returns the
  /// output node. Non-const because parameters register mutably (the graph
  /// writes their gradients in train mode); append() itself only reads, so
  /// building per-thread infer graphs from one shared model is safe.
  virtual NodeRef append(Graph& g, NodeRef x) = 0;

  /// Total trainable scalar count (paper Table III accounting).
  virtual std::size_t param_count() const = 0;

  /// Stable identifier for serialization dispatch.
  virtual std::string kind() const = 0;

  /// Writes hyperparameters + weights.
  virtual void serialize(ByteWriter& out) const = 0;
};

/// Element-wise rectified linear unit.
class ReLU final : public Layer {
 public:
  NodeRef append(Graph& g, NodeRef x) override { return g.relu(x); }
  std::size_t param_count() const override { return 0; }
  std::string kind() const override { return "relu"; }
  void serialize(ByteWriter& out) const override;
  static std::unique_ptr<ReLU> deserialize(ByteReader& in);
};

/// Xavier/Glorot uniform initialisation used across the framework.
void xavier_init(std::vector<float>& w, std::size_t fan_in,
                 std::size_t fan_out, Rng& rng);

}  // namespace xfc::nn

#endif  // XFC_NN_LAYERS_HPP
