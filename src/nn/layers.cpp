#include "nn/layers.hpp"

#include <cmath>

namespace xfc::nn {

void xavier_init(std::vector<float>& w, std::size_t fan_in,
                 std::size_t fan_out, Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& v : w) v = static_cast<float>(rng.uniform(-limit, limit));
}

// ---------------------------------------------------------------- ReLU ----

void ReLU::serialize(ByteWriter& out) const { (void)out; }

std::unique_ptr<ReLU> ReLU::deserialize(ByteReader& in) {
  (void)in;
  return std::make_unique<ReLU>();
}

}  // namespace xfc::nn
