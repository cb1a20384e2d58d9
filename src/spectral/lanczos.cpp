#include "spectral/lanczos.hpp"

#include <cmath>
#include <stdexcept>

#include "spectral/dense_eig.hpp"
#include "util/rng.hpp"

namespace sfly {
namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

void axpy(std::vector<double>& y, double alpha, const std::vector<double>& x) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

void spmv(const Graph& g, const std::vector<double>& x, std::vector<double>& y) {
  const Vertex n = g.num_vertices();
  for (Vertex u = 0; u < n; ++u) {
    double s = 0.0;
    for (Vertex v : g.neighbors(u)) s += x[v];
    y[u] = s;
  }
}

}  // namespace

LanczosResult adjacency_extreme_eigenvalues(
    const Graph& g, const std::vector<std::vector<double>>& deflate,
    int max_iter, std::uint64_t seed) {
  const Vertex n = g.num_vertices();
  if (n == 0) return {};

  // Orthonormalize the deflation set (modified Gram-Schmidt).
  std::vector<std::vector<double>> defl;
  for (const auto& d : deflate) {
    std::vector<double> v = d;
    for (const auto& u : defl) axpy(v, -dot(v, u), u);
    double nv = norm(v);
    if (nv > 1e-10) {
      for (double& x : v) x /= nv;
      defl.push_back(std::move(v));
    }
  }
  auto project_out = [&](std::vector<double>& v) {
    for (const auto& u : defl) axpy(v, -dot(v, u), u);
  };

  const int m = std::min<int>(max_iter, static_cast<int>(n) -
                                            static_cast<int>(defl.size()));
  if (m <= 0) return {};

  Rng rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<std::vector<double>> basis;
  basis.reserve(m);
  std::vector<double> q(n);
  for (double& x : q) x = unit(rng);
  project_out(q);
  double nq = norm(q);
  if (nq < 1e-12) throw std::runtime_error("lanczos: degenerate start vector");
  for (double& x : q) x /= nq;

  std::vector<double> alpha, beta;
  std::vector<double> w(n);
  for (int j = 0; j < m; ++j) {
    basis.push_back(q);
    spmv(g, q, w);
    project_out(w);
    double a = dot(w, q);
    alpha.push_back(a);
    // Full reorthogonalization for numerical robustness.
    for (const auto& b : basis) axpy(w, -dot(w, b), b);
    for (const auto& b : basis) axpy(w, -dot(w, b), b);
    double nb = norm(w);
    if (nb < 1e-10) break;  // Krylov space exhausted
    beta.push_back(nb);
    for (Vertex i = 0; i < n; ++i) q[i] = w[i] / nb;
  }
  if (!beta.empty() && beta.size() >= alpha.size()) beta.resize(alpha.size() - 1);

  auto eig = tridiagonal_eigenvalues(alpha, beta);
  LanczosResult out;
  out.min_eig = eig.front();
  out.max_eig = eig.back();
  out.iterations = static_cast<int>(alpha.size());
  return out;
}

}  // namespace sfly
