#include "abft/attack/fault.hpp"

#include <algorithm>
#include <vector>

namespace abft::attack {

std::optional<Vector> FaultModel::emit(const AttackContext& context, util::Rng& rng) const {
  const int dim = context.true_gradient.dim();
  std::vector<double> storage(context.honest_gradients.size() * static_cast<std::size_t>(dim));
  std::vector<int> rows(context.honest_gradients.size());
  for (std::size_t i = 0; i < context.honest_gradients.size(); ++i) {
    const auto src = context.honest_gradients[i].coefficients();
    std::copy(src.begin(), src.end(), storage.begin() + i * static_cast<std::size_t>(dim));
    rows[i] = static_cast<int>(i);
  }
  const HonestRowsView honest(storage.data(), dim, rows);
  const RowAttackContext row_context{context.estimate, context.true_gradient.coefficients(),
                                     honest, context.round};
  Vector out(dim);
  if (!emit_into(out.coefficients(), row_context, rng)) return std::nullopt;
  return out;
}

}  // namespace abft::attack
