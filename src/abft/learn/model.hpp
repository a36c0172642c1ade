// Differentiable classifiers trained by D-SGD.  Parameters are a flat
// Vector so the server-side update and the gradient filters stay oblivious
// to model structure — exactly how the paper treats the d = 431,080 LeNet
// parameter vector.
#pragma once

#include <span>

#include "abft/learn/dataset.hpp"

namespace abft::learn {

class Model {
 public:
  virtual ~Model() = default;

  [[nodiscard]] virtual int param_dim() const noexcept = 0;

  /// Average cross-entropy loss over the given examples; when `gradient` is
  /// non-null it receives the average loss gradient (resized to param_dim).
  virtual double loss(const Vector& params, const Dataset& data, std::span<const int> examples,
                      Vector* gradient) const = 0;

  /// Predicted class for one feature row.
  [[nodiscard]] virtual int predict(const Vector& params, const Vector& features) const = 0;
};

/// Average loss over an entire dataset (no gradient).
double dataset_loss(const Model& model, const Vector& params, const Dataset& data);

/// Fraction of correctly classified examples.
double accuracy(const Model& model, const Vector& params, const Dataset& data);

}  // namespace abft::learn
