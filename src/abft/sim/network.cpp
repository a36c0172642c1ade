#include "abft/sim/network.hpp"

#include <algorithm>

#include "abft/util/check.hpp"

namespace abft::sim {

SyncNetwork::SyncNetwork(double drop_probability, std::uint64_t seed)
    : drop_probability_(drop_probability), rng_(seed) {
  ABFT_REQUIRE(0.0 <= drop_probability && drop_probability <= 1.0,
               "drop probability must be in [0, 1]");
}

std::optional<Vector> SyncNetwork::transmit(int agent, int round,
                                            std::optional<Vector> payload) {
  ++messages_sent_;
  if (payload.has_value() && drop_probability_ > 0.0 && rng_.uniform() < drop_probability_) {
    payload.reset();
    ++messages_dropped_;
  }
  if (recording_) transcript_.push_back(GradientMessage{agent, round, payload});
  return payload;
}

bool SyncNetwork::deliver_row(int agent, int round, std::span<const double> payload,
                              std::span<double> dst) {
  bool delivered = !payload.empty();
  if (delivered && drop_probability_ > 0.0 && rng_.uniform() < drop_probability_) {
    delivered = false;
    ++messages_dropped_;
  }
  if (delivered) {
    ABFT_REQUIRE(payload.size() == dst.size(), "ingest row size mismatch");
    if (dst.data() != payload.data()) std::copy(payload.begin(), payload.end(), dst.begin());
  }
  if (recording_) {
    std::optional<Vector> copy;
    if (delivered) copy = Vector(std::vector<double>(payload.begin(), payload.end()));
    transcript_.push_back(GradientMessage{agent, round, std::move(copy)});
  }
  return delivered;
}

}  // namespace abft::sim
