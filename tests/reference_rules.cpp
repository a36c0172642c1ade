#include "reference_rules.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "krum_reference.hpp"

namespace reference_rules {

namespace {

using abft::linalg::distance;

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size();
  return m % 2 == 1 ? v[m / 2] : 0.5 * (v[m / 2 - 1] + v[m / 2]);
}

std::vector<double> column(std::span<const Vector> g, int k) {
  std::vector<double> c;
  for (const auto& v : g) c.push_back(v[k]);
  return c;
}

std::vector<double> norms(std::span<const Vector> g) {
  std::vector<double> out;
  for (const auto& v : g) out.push_back(v.norm());
  return out;
}

Vector cwmed(std::span<const Vector> g) {
  Vector out(g.front().dim());
  for (int k = 0; k < out.dim(); ++k) out[k] = median(column(g, k));
  return out;
}

Vector cwtm(std::span<const Vector> g, int f) {
  const int n = static_cast<int>(g.size());
  require(n > 2 * f, "cwtm needs n > 2f");
  Vector out(g.front().dim());
  for (int k = 0; k < out.dim(); ++k) {
    auto c = column(g, k);
    std::sort(c.begin(), c.end());
    double sum = 0.0;
    for (int j = f; j < n - f; ++j) sum += c[static_cast<std::size_t>(j)];
    out[k] = sum / static_cast<double>(n - 2 * f);
  }
  return out;
}

/// Krum scores with `neighbors` nearest neighbours: squared distances
/// through krum_reference::score.
std::vector<double> krum_scores(std::span<const Vector> g, int neighbors) {
  std::vector<double> scores;
  for (std::size_t i = 0; i < g.size(); ++i) {
    std::vector<double> cand;
    for (std::size_t j = 0; j < g.size(); ++j) {
      if (j == i) continue;
      const double d = distance(g[i], g[j]);
      cand.push_back(d * d);
    }
    scores.push_back(krum_reference::score(cand, neighbors));
  }
  return scores;
}

std::vector<int> krum_order(std::span<const Vector> g, int f) {
  const int n = static_cast<int>(g.size());
  require(n > 2 * f + 2, "krum needs n > 2f + 2");
  const auto scores = krum_scores(g, n - f - 2);
  std::vector<int> order(g.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&scores](int a, int b) {
    return scores[static_cast<std::size_t>(a)] < scores[static_cast<std::size_t>(b)];
  });
  return order;
}

Vector multikrum(std::span<const Vector> g, int f) {
  const int m = static_cast<int>(g.size()) - f;
  const auto order = krum_order(g, f);
  Vector sum(g.front().dim());
  for (int s = 0; s < m; ++s) {
    sum += g[static_cast<std::size_t>(order[static_cast<std::size_t>(s)])];
  }
  return sum / static_cast<double>(m);
}

Vector geometric_median(std::span<const Vector> points) {
  Vector cur = abft::linalg::mean(points);
  const double scale = std::max(1.0, cur.norm());
  for (int iter = 0; iter < 200; ++iter) {
    Vector num(cur.dim());
    double den = 0.0;
    for (const auto& p : points) {
      const double w = 1.0 / std::max(distance(cur, p), 1e-12 * scale);
      num.add_scaled(w, p);
      den += w;
    }
    const Vector next = num * (1.0 / den);
    const double moved = distance(next, cur);
    cur = next;
    if (moved <= 1e-10 * scale) break;
  }
  return cur;
}

Vector gmom(std::span<const Vector> g, int f) {
  const int n = static_cast<int>(g.size());
  const int k = std::min(n, 2 * f + 1);
  std::vector<Vector> means;
  int start = 0;
  for (int b = 0; b < k; ++b) {
    const int size = (n - start) / (k - b);
    Vector sum(g.front().dim());
    for (int i = start; i < start + size; ++i) sum += g[static_cast<std::size_t>(i)];
    means.push_back(sum / static_cast<double>(size));
    start += size;
  }
  return geometric_median(means);
}

Vector bulyan(std::span<const Vector> g, int f) {
  const int n = static_cast<int>(g.size());
  require(n >= 4 * f + 3, "bulyan needs n >= 4f + 3");
  require(f >= 1, "bulyan's last selection round needs a pool of two");
  const int theta = n - 2 * f;
  const int beta = theta - 2 * f;
  std::vector<Vector> pool(g.begin(), g.end());
  std::vector<Vector> selected;
  for (int round = 0; round < theta; ++round) {
    const int neighbors = std::max(1, static_cast<int>(pool.size()) - f - 2);
    const auto scores = krum_scores(pool, neighbors);
    const auto best = std::min_element(scores.begin(), scores.end()) - scores.begin();
    selected.push_back(pool[static_cast<std::size_t>(best)]);
    pool.erase(pool.begin() + best);
  }
  Vector out(g.front().dim());
  for (int k = 0; k < out.dim(); ++k) {
    auto c = column(selected, k);
    const double med = median(c);
    std::sort(c.begin(), c.end());
    std::sort(c.begin(), c.end(),
              [med](double a, double b) { return std::abs(a - med) < std::abs(b - med); });
    double sum = 0.0;
    for (int s = 0; s < beta; ++s) sum += c[static_cast<std::size_t>(s)];
    out[k] = sum / static_cast<double>(beta);
  }
  return out;
}

Vector normclip(std::span<const Vector> g) {
  const auto norm = norms(g);
  const double clip = median(norm);
  Vector sum(g.front().dim());
  for (std::size_t i = 0; i < g.size(); ++i) {
    sum.add_scaled(norm[i] > clip && norm[i] > 0.0 ? clip / norm[i] : 1.0, g[i]);
  }
  return sum / static_cast<double>(g.size());
}

/// Centered clipping with the adaptive radius and three iterations.
Vector cclip(std::span<const Vector> g) {
  Vector pivot = cwmed(g);
  for (int iter = 0; iter < 3; ++iter) {
    std::vector<double> dists;
    for (const auto& v : g) dists.push_back(distance(v, pivot));
    const double tau = median(dists);
    if (tau <= 0.0) break;
    Vector correction(pivot.dim());
    for (const auto& v : g) {
      Vector delta = v - pivot;
      const double norm = delta.norm();
      if (norm > tau) delta *= tau / norm;
      correction += delta;
    }
    pivot.add_scaled(1.0 / static_cast<double>(g.size()), correction);
  }
  return pivot;
}

}  // namespace

std::vector<int> cge_kept(std::span<const Vector> gradients, int f) {
  auto norm = norms(gradients);
  // A NaN norm counts as +inf; the stable sort breaks ties by index.
  for (double& v : norm) {
    if (std::isnan(v)) v = std::numeric_limits<double>::infinity();
  }
  std::vector<int> order(gradients.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&norm](int a, int b) {
    return norm[static_cast<std::size_t>(a)] < norm[static_cast<std::size_t>(b)];
  });
  order.resize(gradients.size() - static_cast<std::size_t>(f));
  return order;
}

Vector aggregate(std::string_view name, std::span<const Vector> gradients, int f) {
  require(!gradients.empty(), "aggregation needs at least one gradient");
  require(0 <= f && f < static_cast<int>(gradients.size()), "f must lie in [0, n)");
  const int d = gradients.front().dim();
  require(d > 0, "gradients must be non-empty vectors");
  for (const auto& g : gradients) require(g.dim() == d, "all gradients must share a dimension");
  if (name == "average") return abft::linalg::mean(gradients);
  if (name == "cge") {
    Vector sum(d);
    for (const int i : cge_kept(gradients, f)) sum += gradients[static_cast<std::size_t>(i)];
    return sum;
  }
  if (name == "cwtm") return cwtm(gradients, f);
  if (name == "cwmed") return cwmed(gradients);
  if (name == "krum") return gradients[static_cast<std::size_t>(krum_order(gradients, f)[0])];
  if (name == "multikrum") return multikrum(gradients, f);
  if (name == "geomed") return geometric_median(gradients);
  if (name == "gmom") return gmom(gradients, f);
  if (name == "bulyan") return bulyan(gradients, f);
  if (name == "normclip") return normclip(gradients);
  if (name == "cclip") return cclip(gradients);
  throw std::invalid_argument("no reference for rule " + std::string(name));
}

}  // namespace reference_rules
