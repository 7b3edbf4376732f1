#include "nn/sequential.hpp"

#include "nn/attention.hpp"
#include "nn/conv2d.hpp"

namespace xfc::nn {

NodeRef Sequential::append(Graph& g, NodeRef x) {
  NodeRef cur = x;
  for (auto& layer : layers_) cur = layer->append(g, cur);
  return cur;
}

std::size_t Sequential::param_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->param_count();
  return n;
}

void Sequential::serialize(ByteWriter& out) const {
  out.varint(layers_.size());
  for (const auto& layer : layers_) {
    out.str(layer->kind());
    layer->serialize(out);
  }
}

std::unique_ptr<Sequential> Sequential::deserialize(ByteReader& in) {
  auto model = std::make_unique<Sequential>();
  const std::uint64_t n = in.varint();
  if (n > 1024) throw CorruptStream("Sequential::deserialize: absurd depth");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string kind = in.str();
    model->add(deserialize_layer(kind, in));
  }
  return model;
}

std::vector<std::uint8_t> Sequential::save_bytes() const {
  ByteWriter out;
  serialize(out);
  return out.take();
}

std::unique_ptr<Sequential> Sequential::load_bytes(
    std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  return deserialize(in);
}

std::unique_ptr<Layer> deserialize_layer(const std::string& kind,
                                         ByteReader& in) {
  if (kind == "relu") return ReLU::deserialize(in);
  if (kind == "conv2d") return Conv2D::deserialize(in);
  if (kind == "channel_attention") return ChannelAttention::deserialize(in);
  if (kind == "sequential") return Sequential::deserialize(in);
  throw CorruptStream("deserialize_layer: unknown layer kind '" + kind + "'");
}

}  // namespace xfc::nn
