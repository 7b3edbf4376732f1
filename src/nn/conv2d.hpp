#ifndef XFC_NN_CONV2D_HPP
#define XFC_NN_CONV2D_HPP

/// \file conv2d.hpp
/// 2-D convolution descriptor with group support, stride 1, zero "same"
/// padding.
///
/// groups == 1 is a standard convolution; groups == in_channels ==
/// out_channels is a depthwise convolution; kernel 1x1 with groups == 1 is
/// a pointwise convolution — together these are the building blocks of the
/// paper's depthwise-separable CFNN stage (Fig. 4). Execution is the
/// graph's kConv2D op on direct kernels: the forward pass in graph.cpp; the
/// backward pass in autodiff.cpp, whose data gradient is the same forward
/// kernel run on the output gradient with transposed, flipped weights.

#include <memory>

#include "nn/layers.hpp"

namespace xfc::nn {

class Conv2D final : public Layer {
 public:
  /// `kernel` must be odd (same padding of kernel/2 keeps H/W unchanged).
  Conv2D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t groups, bool bias, Rng& rng);

  NodeRef append(Graph& g, NodeRef x) override;
  std::size_t param_count() const override {
    return weight_.size() + bias_.size();
  }
  std::string kind() const override { return "conv2d"; }
  void serialize(ByteWriter& out) const override;
  static std::unique_ptr<Conv2D> deserialize(ByteReader& in);

  std::size_t in_channels() const { return in_ch_; }
  std::size_t out_channels() const { return out_ch_; }
  std::size_t kernel() const { return k_; }
  std::size_t groups() const { return groups_; }
  std::vector<float>& weight() { return weight_; }
  std::vector<float>& bias() { return bias_; }

 private:
  Conv2D() = default;

  std::size_t in_ch_ = 0, out_ch_ = 0, k_ = 0, groups_ = 1;
  bool has_bias_ = true;
  // weight layout: [out_ch][in_ch/groups][k][k]
  std::vector<float> weight_, bias_;
};

}  // namespace xfc::nn

#endif  // XFC_NN_CONV2D_HPP
