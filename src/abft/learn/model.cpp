#include "abft/learn/model.hpp"

#include <numeric>

#include "abft/util/check.hpp"

namespace abft::learn {

double dataset_loss(const Model& model, const Vector& params, const Dataset& data) {
  std::vector<int> everyone(static_cast<std::size_t>(data.num_examples()));
  std::iota(everyone.begin(), everyone.end(), 0);
  return model.loss(params, data, everyone, nullptr);
}

double accuracy(const Model& model, const Vector& params, const Dataset& data) {
  ABFT_REQUIRE(data.num_examples() > 0, "accuracy needs a non-empty dataset");
  int correct = 0;
  for (int i = 0; i < data.num_examples(); ++i) {
    if (model.predict(params, data.features.row(i)) == data.labels[static_cast<std::size_t>(i)]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.num_examples());
}

}  // namespace abft::learn
